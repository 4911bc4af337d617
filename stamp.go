package stamp

import (
	"fmt"
	"io"
	"strings"

	"github.com/stamp-go/stamp/internal/container"
	"github.com/stamp-go/stamp/internal/harness"
	"github.com/stamp-go/stamp/internal/mem"
	"github.com/stamp-go/stamp/internal/thread"
	"github.com/stamp-go/stamp/internal/tm"
	"github.com/stamp-go/stamp/internal/tm/chaos"
	"github.com/stamp-go/stamp/internal/tm/factory"
	"github.com/stamp-go/stamp/internal/tm/trace"
)

// Core transactional-memory types (see the tm package docs on each).
type (
	// Arena is the word-addressed shared memory all transactional data
	// lives in.
	Arena = mem.Arena
	// Addr is a word index into an Arena; Nil (0) is the null address.
	Addr = mem.Addr
	// Direct is a non-transactional accessor over an Arena, for setup and
	// verification phases: code that has the arena to itself. Its stores
	// are plain writes, so it must not run beside a transaction.
	Direct = mem.Direct
	// Mem is the load/store/alloc contract shared by Tx and Direct.
	Mem = tm.Mem
	// Tx is the per-attempt transactional context passed to atomic blocks.
	Tx = tm.Tx
	// Thread is a per-worker handle bound to one TM system.
	Thread = tm.Thread
	// System is one TM runtime instance.
	System = tm.System
	// Config carries runtime construction knobs.
	Config = tm.Config
	// Stats is the aggregate transactional statistics of a run.
	Stats = tm.Stats
	// BlockID identifies one atomic-block call site for per-block
	// statistics (NewBlock, Thread.AtomicAt).
	BlockID = tm.BlockID
	// BlockRow is one per-block line of Stats.Blocks(): commits, aborts,
	// mean set sizes, and abort causes for one call site.
	BlockRow = tm.BlockRow
	// Team is the fork/join worker group with a reusable barrier.
	Team = thread.Team
	// AbortCause classifies why one transactional attempt failed (see
	// CauseNames for the closed taxonomy).
	AbortCause = tm.AbortCause
	// ConflictKey names the contended location of an abort: an address, a
	// lock-table stripe, or a cache line (0 = no identifiable location).
	ConflictKey = tm.ConflictKey
	// ConflictRow is one row of the aggregated conflict heatmap
	// (Stats.TopConflicts): a contended location, its abort count, the
	// per-cause split, and the most-blamed enemy block.
	ConflictRow = tm.ConflictRow
	// TraceEvent is one sampled tracer record of a run (Result.Trace).
	TraceEvent = tm.TraceEvent
)

// Container types (arena-resident, usable inside and outside transactions).
type (
	// List is a sorted singly-linked list with unique uint64 keys.
	List = container.List
	// Queue is a growable circular-buffer FIFO.
	Queue = container.Queue
	// Hashtable is a fixed-bucket chained hash map.
	Hashtable = container.Hashtable
	// RBTree is a red-black tree map.
	RBTree = container.RBTree
	// Heap is a binary min-heap of (key, value) pairs.
	Heap = container.Heap
	// Vector is a growable word array.
	Vector = container.Vector
	// Bitmap is a fixed-size bit array.
	Bitmap = container.Bitmap
)

// Benchmark-suite types.
type (
	// Variant is one Table IV configuration row.
	Variant = harness.Variant
	// Options is the single per-run configuration struct: what to run on
	// (System, Threads, Scale) plus every per-run knob — contention-manager
	// policy (CM), tracing, chaos, the progress watchdog, and the
	// Characterize/MeasureSpeedup sweep shapes. Options.Validate reports
	// every invalid field at once.
	Options = harness.Options
	// Result is the outcome of one app × system × threads run.
	Result = harness.Result
	// Characterization is one Table VI row.
	Characterization = harness.Characterization
	// SpeedupSeries is one Figure 1 panel.
	SpeedupSeries = harness.SpeedupSeries
)

// NilAddr is the null arena address.
const NilAddr = mem.Nil

// The closed abort-cause taxonomy (Stats.AbortCauses indexes by these;
// CauseNames gives the matching display names in the same order).
const (
	CauseUnknown              = tm.CauseUnknown
	CauseReadValidation       = tm.CauseReadValidation
	CauseStripeLockBusy       = tm.CauseStripeLockBusy
	CauseSeqChanged           = tm.CauseSeqChanged
	CauseWriteWrite           = tm.CauseWriteWrite
	CauseSignatureConflict    = tm.CauseSignatureConflict
	CauseHTMConflict          = tm.CauseHTMConflict
	CauseHTMCapacity          = tm.CauseHTMCapacity
	CauseCMKill               = tm.CauseCMKill
	CauseExplicitRetry        = tm.CauseExplicitRetry
	CauseMVVersionMissing     = tm.CauseMVVersionMissing
	CauseKilledForIrrevocable = tm.CauseKilledForIrrevocable
	CauseAllocExhausted       = tm.CauseAllocExhausted
	NumCauses                 = tm.NumCauses
)

// ErrArenaFull is the typed arena-capacity sentinel: a tx.Alloc that found
// the arena out of words aborts its attempt with CauseAllocExhausted and
// surfaces from Run / Serve as an error wrapping this (never a panic).
// Match with errors.Is.
var ErrArenaFull = mem.ErrArenaFull

// ErrStalled is the distinguishable error Run (and the commands' -timeout
// flag, and the serving harness — see Serve) reports when the progress
// watchdog halts a run that made no commit progress for a full
// Options.ProgressTimeout window; match with errors.Is.
var ErrStalled = harness.ErrStalled

// ChaosSite describes one registered fault-injection failpoint for listings
// (name, kind, description); see ChaosSites and Options.Chaos.
type ChaosSite = chaos.SiteInfo

// ChaosSites returns every registered fault-injection failpoint in enum
// order. Failpoints are armed per run through Config.Chaos / Options.Chaos
// (or the -chaos flag of the commands) with a spec of the form
// "seed:site:prob[,site:prob...]".
func ChaosSites() []ChaosSite { return chaos.Sites() }

// ParseChaos validates a chaos spec ("seed:site:prob[,site:prob...]")
// against the failpoint registry. The empty string is allowed and means
// chaos off.
func ParseChaos(spec string) (string, error) {
	spec = strings.TrimSpace(spec)
	if _, err := chaos.Parse(spec); err != nil {
		return "", err
	}
	return spec, nil
}

// NewArena returns an arena with capacity for nWords 8-byte words.
func NewArena(nWords int) *Arena { return mem.NewArena(nWords) }

// NewSystem constructs a TM runtime by name: "seq", "stm-lazy", "stm-eager",
// "stm-norec", "stm-mv", "htm-lazy", "htm-eager", "hybrid-lazy", or
// "hybrid-eager".
func NewSystem(name string, cfg Config) (System, error) { return factory.New(name, cfg) }

// NewBlock registers an atomic-block call site under a stable name and
// returns its ID for Thread.AtomicAt, so a run's statistics can be broken
// down per block (Stats.Blocks). Registration is idempotent: the same name
// always yields the same ID.
func NewBlock(name string) BlockID { return tm.NewBlock(name) }

// NewROBlock registers an atomic-block call site like NewBlock and marks it
// read-mostly: runtimes with a read-optimized begin path start the block's
// first attempt there — stm-mv's snapshot reads (abort-free while the
// per-stripe ring, MVVersions, still retains the snapshot) and NOrec's
// log-free reads (no read log; any concurrent writer commit aborts the
// attempt once). The
// mark is a hint — a marked block that stores still commits correctly on
// every runtime, and retries run the ordinary protocol.
func NewROBlock(name string) BlockID { return tm.NewROBlock(name) }

// BlockName returns the registered name of a block ID ("" if unknown).
func BlockName(id BlockID) string { return tm.BlockName(id) }

// Systems returns every runtime name, including the sequential baseline.
func Systems() []string { return factory.Names() }

// TMSystems returns the six transactional systems of the paper's
// evaluation.
func TMSystems() []string { return harness.TMSystems() }

// ParseSystems parses a comma-separated TM-system list and validates every
// entry against Systems(). Empty entries are skipped and duplicates removed
// (first occurrence wins), so measurement sweeps never run a system twice.
// With allowSeq false the sequential baseline is rejected: seq has no
// concurrency control, so running it at multiple threads corrupts the
// workload.
func ParseSystems(list string, allowSeq bool) ([]string, error) {
	known := make(map[string]bool)
	for _, name := range Systems() {
		known[name] = true
	}
	seen := make(map[string]bool)
	var systems []string
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if name == "" || seen[name] {
			continue
		}
		if !known[name] {
			return nil, fmt.Errorf("unknown TM system %q (known: %s)",
				name, strings.Join(Systems(), ", "))
		}
		if name == "seq" && !allowSeq {
			return nil, fmt.Errorf("seq is the sequential baseline (no concurrency control) and cannot be swept at multiple threads")
		}
		seen[name] = true
		systems = append(systems, name)
	}
	if len(systems) == 0 {
		return nil, fmt.Errorf("need at least one TM system (known: %s)",
			strings.Join(Systems(), ", "))
	}
	return systems, nil
}

// CauseNames returns every abort-cause display name in enum order,
// "unknown" first: the closed taxonomy every runtime stamps its aborts
// with (Stats.AbortCauses indexes by the same order).
func CauseNames() []string { return tm.CauseNames() }

// TraceEvents collects a system's sampled tracer events across all worker
// rings, time-sorted — nil unless the system was built with Config.Trace
// > 0. Library users call this after their workers join; harness runs get
// the same slice in Result.Trace.
func TraceEvents(sys System) []TraceEvent { return tm.TraceEvents(sys) }

// WriteChromeTrace renders a run's sampled tracer events (Result.Trace,
// produced with Options.Trace > 0) as Chrome trace-event JSON — loadable in
// Perfetto or chrome://tracing — resolving block IDs through the block
// registry.
func WriteChromeTrace(w io.Writer, events []TraceEvent) error {
	return trace.WriteChrome(w, events, func(id int32) string {
		return tm.BlockName(tm.BlockID(id))
	})
}

// CMNames returns every registered contention-manager policy name, sorted:
// "expo", "greedy", "karma", "none", "randlin". Policies are
// selected per run through Config.CM (or the -cm flag of the commands);
// an empty Config.CM keeps each runtime's historical default — randomized
// linear backoff ("randlin") for STMs and hybrids, immediate restart
// ("none") for the simulated HTMs.
func CMNames() []string { return tm.CMNames() }

// CMDescription returns the one-line description of a registered
// contention-manager policy (empty for unknown names).
func CMDescription(name string) string { return tm.CMDescription(name) }

// ParseCM validates a contention-manager name against CMNames. The empty
// string is allowed and means "each runtime's default policy".
func ParseCM(name string) (string, error) {
	name = strings.TrimSpace(name)
	if name == "" {
		return "", nil
	}
	for _, known := range CMNames() {
		if name == known {
			return name, nil
		}
	}
	return "", fmt.Errorf("unknown contention manager %q (known: %s)",
		name, strings.Join(CMNames(), ", "))
}

// NewTeam returns a fork/join team of n workers.
func NewTeam(n int) *Team { return thread.NewTeam(n) }

// NewList allocates an empty sorted list in m.
func NewList(m Mem) List { return container.NewList(m) }

// NewQueue allocates an empty FIFO with the given initial capacity.
func NewQueue(m Mem, capacity int) Queue { return container.NewQueue(m, capacity) }

// NewHashtable allocates a hash map with nBuckets chains.
func NewHashtable(m Mem, nBuckets int) Hashtable { return container.NewHashtable(m, nBuckets) }

// NewRBTree allocates an empty red-black tree.
func NewRBTree(m Mem) RBTree { return container.NewRBTree(m) }

// NewHeap allocates an empty min-heap with room for capacity entries.
func NewHeap(m Mem, capacity int) Heap { return container.NewHeap(m, capacity) }

// NewVector allocates an empty vector with the given initial capacity.
func NewVector(m Mem, capacity int) Vector { return container.NewVector(m, capacity) }

// NewBitmap allocates an n-bit bitmap, all clear.
func NewBitmap(m Mem, n int) Bitmap { return container.NewBitmap(m, n) }

// LoadF64 reads a float64 stored at a through m.
func LoadF64(m Mem, a Addr) float64 { return tm.LoadF64(m, a) }

// StoreF64 writes a float64 at a through m.
func StoreF64(m Mem, a Addr, f float64) { tm.StoreF64(m, a, f) }

// Variants returns all 30 Table IV configurations.
func Variants() []Variant { return harness.Variants() }

// SimVariants returns the 20 simulation-scale (non-'++') variants.
func SimVariants() []Variant { return harness.SimVariants() }

// FindVariant looks a variant up by name (e.g. "vacation-high+").
func FindVariant(name string) (Variant, error) { return harness.FindVariant(name) }

// Run executes one variant on opt.System (required) at opt.Threads workers
// (0 = 1), at opt.Scale (0 = 1.0, the paper's configuration), with every
// other per-run knob read from opt. Options.Validate reports every
// configuration problem at once before anything runs.
func Run(variantName string, opt Options) (Result, error) {
	v, err := harness.FindVariant(variantName)
	if err != nil {
		return Result{}, err
	}
	return harness.RunVariant(v, opt)
}

// Characterize regenerates one Table VI row for a variant at opt.Scale,
// with the retry columns run at opt.RetryThreads (0 = 16, the paper's) and
// extended by opt.ExtraRetrySystems. The per-run knobs of opt apply to the
// retry-column runs; opt.System and opt.Threads are ignored — the columns
// pick their own.
func Characterize(variantName string, opt Options) (Characterization, error) {
	v, err := harness.FindVariant(variantName)
	if err != nil {
		return Characterization{}, err
	}
	return harness.Characterize(v, opt)
}

// MeasureSpeedup runs one Figure 1 panel for a variant at opt.Scale:
// opt.Systems (nil = the paper's six) swept over opt.ThreadCounts (nil =
// 1,2,4,8,16) against the sequential baseline.
func MeasureSpeedup(variantName string, opt Options) (SpeedupSeries, error) {
	v, err := harness.FindVariant(variantName)
	if err != nil {
		return SpeedupSeries{}, err
	}
	return harness.MeasureSpeedup(v, opt)
}
