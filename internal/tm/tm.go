// Package tm defines the portable transactional-memory API that every STAMP
// application in this suite is written against, mirroring the C macro layer
// of the original benchmark (TM_BEGIN / TM_SHARED_READ / TM_SHARED_WRITE /
// TM_EARLY_RELEASE / TM_RESTART). The same application code runs unchanged
// on every runtime:
//
//	seq           sequential baseline (no concurrency control; speedup denominator)
//	stm-lazy      TL2-style lazy STM (write buffer, commit-time locking, word granularity)
//	stm-eager     eager TL2 variant (undo log, encounter-time locking, word granularity)
//	stm-norec     NOrec STM (single global sequence lock, value-based validation,
//	              no per-location metadata; every writer commit serializes
//	              through the lock, read-only commits take no lock and no tick)
//	htm-lazy      simulated TCC-style HTM (lazy versioning, commit arbitration,
//	              line granularity, capacity overflow => serialized execution)
//	htm-eager     simulated LogTM-style HTM (eager versioning, access-time line
//	              conflicts, requester loses, priority after 32 aborts, Bloom overflow)
//	hybrid-lazy   simulated SigTM (software write buffer + hardware signatures)
//	hybrid-eager  eager SigTM variant (software undo log + hardware signatures)
//	stm-mv        multi-version STM: TL2-style writers append committed values
//	              to per-stripe bounded version rings (Config.MVVersions), so
//	              read-only transactions read a consistent snapshot at their
//	              begin timestamp with zero validation, zero lock
//	              acquisitions and — while the per-stripe ring (MVVersions)
//	              still retains the snapshot — zero aborts while writers
//	              commit concurrently
//
// The paper's evaluation covers six of these (factory.TMNames()); the NOrec
// and multi-version runtimes extend the comparison axis beyond the paper and
// are selected explicitly by name (factory.Names() lists everything
// registered).
//
// Transactional data lives in a mem.Arena; Tx.Load and Tx.Store are the read
// and write barriers. Conflicts abort the current attempt by panicking with
// a private signal that the transaction driver (driver.go — the one retry
// loop every runtime runs under) recovers from before retrying, so an atomic
// block may execute any number of times. The one rule applications
// must follow (the same rule the C suite follows implicitly via setjmp):
// any non-arena state mutated inside the block must be reset at block entry.
//
// How aggressively a runtime retries is governed by a pluggable
// ContentionManager selected through Config.CM — see the interface and the
// policy registry (CMNames) in cm.go. The zero Config reproduces the
// paper's behavior: randomized linear backoff on the software-managed
// systems, immediate restart on the simulated HTMs.
package tm

import (
	"fmt"

	"github.com/stamp-go/stamp/internal/mem"
	"github.com/stamp-go/stamp/internal/tm/chaos"
)

// Mem is the minimal read/write/allocate contract shared by transactions and
// by the non-transactional mem.Direct accessor. The container library is
// written against Mem so the same data-structure code serves transactional
// and setup/verification phases.
type Mem interface {
	Load(a mem.Addr) uint64
	Store(a mem.Addr, v uint64)
	Alloc(n int) mem.Addr
	// Free releases the n-word block at a (n is the size passed to the
	// Alloc that produced it). Inside a transaction the free is deferred to
	// commit and recycled through the thread's free lists (see
	// mem.Reserver); mem.Direct ignores it.
	Free(a mem.Addr, n int)
}

// Tx is the per-attempt transactional context handed to atomic blocks.
type Tx interface {
	Mem

	// EarlyRelease removes a previously read address from the transaction's
	// read set so it no longer generates conflicts (Herlihy et al.; used by
	// labyrinth exactly as in the paper). Systems without early release
	// treat it as a no-op, which is always safe.
	EarlyRelease(a mem.Addr)

	// Peek performs an uninstrumented read, modelling an access the compiler
	// did not wrap in a barrier. On lazy-versioning systems it does not see
	// the transaction's own buffered writes. Labyrinth uses Peek for its
	// grid privatization on the software and hybrid systems, as the paper
	// describes.
	Peek(a mem.Addr) uint64

	// Restart aborts the current attempt and retries the atomic block
	// (TM_RESTART). It never returns.
	Restart()
}

// Thread is a per-worker handle bound to one TM system instance. Thread
// values are not safe for concurrent use; each worker goroutine owns one.
type Thread interface {
	// ID returns the worker id in [0, System.NThreads()).
	ID() int
	// Atomic executes fn as one transaction, retrying until it commits.
	// Statistics are attributed to NoBlock.
	Atomic(fn func(Tx))
	// AtomicAt is Atomic with the transaction attributed to the atomic-block
	// call site b (see NewBlock) in the per-block statistics.
	AtomicAt(b BlockID, fn func(Tx))
	// Stats returns this worker's statistics record.
	Stats() *ThreadStats
}

// System is one TM runtime instance bound to an arena and a fixed thread
// count.
type System interface {
	// Name returns the registry name (e.g. "stm-lazy").
	Name() string
	// Arena returns the arena all transactional data lives in.
	Arena() *mem.Arena
	// NThreads returns the number of worker slots.
	NThreads() int
	// Thread returns the worker handle for slot id. Each slot must be used
	// by at most one goroutine at a time.
	Thread(id int) Thread
	// Stats returns the aggregated statistics across all worker slots.
	Stats() Stats
}

// Config carries the knobs shared by the runtime implementations; the zero
// value is completed by Defaults.
type Config struct {
	Arena   *mem.Arena
	Threads int

	// MVVersions is the per-stripe version-ring depth of the stm-mv
	// runtime: how many committed (version, address, value) records each
	// stripe retains for snapshot readers. 0 selects DefaultMVVersions (8).
	// 1 degrades to single-version behavior — a snapshot reader that finds
	// its stripe committed past its begin timestamp always misses the ring
	// and aborts with mv-version-missing, exactly like a TL2 read
	// validation failure. Negative values are rejected by Validate. Only
	// the stm-mv runtime reads this field.
	MVVersions int

	// CM selects the contention-management policy by registry name (see
	// CMNames): "randlin", "expo", "greedy", "karma", or "none". Empty
	// selects the runtime's historical default — randomized linear backoff
	// for STMs and hybrids, immediate restart for the simulated HTMs — so
	// the zero value reproduces the paper's behavior.
	CM string

	// EnableEarlyRelease is ignored: the simulated HTMs always honor
	// EarlyRelease. Labyrinth is its only caller, and with release off its
	// privatization reads stayed tracked (read set 1 728 lines at p90
	// against 18), a configuration no caller chose. The field remains only
	// because the benchmark module (bench/batch.go) still sets it; it goes
	// with the next change there.
	//
	// Deprecated: has no effect.
	EnableEarlyRelease bool

	// Chaos arms the deterministic fault-injection layer with a spec of the
	// form "seed:site:prob[,site:prob...]" — see internal/tm/chaos for the
	// site registry (tl2-lock-acquire, norec-seq-tick, hybrid-sig-check,
	// ...) and cmd/stamp -list-chaos for the listing. Empty — the default —
	// means chaos off: no injector is built and every failpoint is a single
	// nil test. Spurious-abort sites stamp the site's natural abort cause,
	// so the closed-taxonomy invariant holds under injection. The seq
	// baseline has no conflict paths and ignores the field (the spec is
	// still validated).
	Chaos string

	// StarveAfter is the consecutive-abort count past which a starving
	// atomic block escalates to irrevocable mode under *every* contention
	// manager: it acquires the global irrevocability token, drains
	// in-flight peers, runs alone with fault injection suppressed, and
	// must commit (counted in ThreadStats.Escalations/EscalatedCommits;
	// peers it displaces abort with killed-for-irrevocable). 0 selects
	// DefaultStarveAfter; negative disables escalation — the watchdog
	// mutation-test arm, which reintroduces the possibility of livelock.
	StarveAfter int

	// Watch, when non-nil, is the liveness watchdog's shared progress
	// counter: every runtime bumps the committing thread's slot on commit,
	// and blocks poll it at attempt boundaries, unwinding with HaltSignal
	// once Halt has been called. The harness arms it for
	// Options.ProgressTimeout; nil — the default — costs one nil test per
	// commit.
	Watch *Watch

	// Trace enables the sampled event tracer: every Trace-th atomic block
	// per thread records begin/abort/commit/wait events into that thread's
	// ring buffer (1 traces every block). 0 — the default — disables
	// tracing entirely: no rings are allocated and the per-event hot path
	// is a nil-receiver no-op.
	Trace int

	// Seed seeds per-thread backoff jitter.
	Seed uint64
}

// Defaults fills unset fields with the paper's parameters.
func (c Config) Defaults() Config {
	if c.Threads <= 0 {
		c.Threads = 1
	}
	if c.MVVersions == 0 {
		c.MVVersions = DefaultMVVersions
	}
	if c.Seed == 0 {
		c.Seed = 0x5742757374616d70
	}
	if c.StarveAfter == 0 {
		c.StarveAfter = DefaultStarveAfter
	}
	return c
}

// Validate reports configuration errors a constructor should reject.
func (c Config) Validate() error {
	if c.Arena == nil {
		return fmt.Errorf("tm: config needs an arena")
	}
	if c.Threads < 1 {
		return fmt.Errorf("tm: config needs at least one thread, got %d", c.Threads)
	}
	if c.Threads > 64 {
		return fmt.Errorf("tm: at most 64 threads supported (reader masks), got %d", c.Threads)
	}
	if c.Trace < 0 {
		return fmt.Errorf("tm: trace sampling interval must be >= 0, got %d", c.Trace)
	}
	if c.MVVersions < 0 {
		return fmt.Errorf("tm: mv version-ring depth must be >= 0 (0 = default), got %d", c.MVVersions)
	}
	// Chaos is validated on every runtime (including seq, which
	// ignores the armed sites) so a typoed spec errors instead of silently
	// running an un-injected experiment.
	if _, err := chaos.Parse(c.Chaos); err != nil {
		return fmt.Errorf("tm: %w", err)
	}
	return nil
}

// DefaultStarveAfter is the consecutive-abort escalation threshold when
// Config.StarveAfter is 0. It sits far above the other thresholds that act
// on the same counter (the CMs' backoff after 3, the eager HTM's priority
// after 32): escalation drains the whole system, so it is the last resort —
// but unlike every policy below it, it is a guarantee, not a heuristic.
const DefaultStarveAfter = 512

// DefaultAllocChunk is the per-thread reservation size tx.Alloc refills in
// (in words; ~32 KiB of arena per refill) when the arena is large enough.
const DefaultAllocChunk = 4096

// DefaultMVVersions is the stm-mv per-stripe version-ring depth when
// Config.MVVersions is 0.
const DefaultMVVersions = 8

// NewReserver builds one worker slot's allocation handle: it reserves
// DefaultAllocChunk words at a time, capped to Cap/(16·Threads) so the
// reserved-but-unconsumed tails of all slots stay at or below 1/16 of the
// arena and cannot exhaust a tightly sized one. An arena under 16·Threads
// words caps the chunk to 0 and gets a passthrough Reserver. c must pass
// Validate. Runtime.Bind calls this once per slot, so tx.Alloc/tx.Free
// share one policy across protocols.
func (c Config) NewReserver() *mem.Reserver {
	return c.Arena.NewReserver(min(DefaultAllocChunk, c.Arena.Cap()/(16*c.Threads)))
}

// RetrySignal is the panic value used to unwind an aborted attempt. It is
// exported so runtime subpackages can raise it (through Retry or
// AbortInfo.Fail); the application-facing way to raise it is Tx.Restart.
type RetrySignal struct{}

// AllocFailure is the panic value that unwinds an atomic block after a real
// (non-injected) arena capacity miss: the attempt first aborts normally
// with CauseAllocExhausted — releasing protocol resources and keeping the
// taxonomy closed — then the retry loop, seeing AbortInfo.Err set, raises
// AllocFailure instead of retrying (exhaustion does not heal by optimism).
// Attempt does NOT recover it: it propagates out of Atomic/AtomicAt to the
// harness and the serving mode, which convert it into an error wrapping
// mem.ErrArenaFull. Err is that error.
type AllocFailure struct{ Err error }

// Error lets AllocFailure read as an error in contexts that stringify
// recovered panic values.
func (f AllocFailure) Error() string { return f.Err.Error() }

// Retry aborts the current attempt. It never returns.
func Retry() { panic(RetrySignal{}) }

// Attempt runs fn(tx), converting a retry panic into ok=false. Any other
// panic propagates.
func Attempt(tx Tx, fn func(Tx)) (ok bool) {
	defer func() {
		r := recover()
		switch {
		case r == nil:
			ok = true
		case isRetry(r):
			ok = false
		default:
			panic(r)
		}
	}()
	fn(tx)
	return true
}

func isRetry(r any) bool {
	_, ok := r.(RetrySignal)
	return ok
}

// Float helpers over the Mem contract: several applications store float64
// bit patterns in arena words.

// LoadF64 reads a float64 stored at a.
func LoadF64(m Mem, a mem.Addr) float64 { return mem.W2F(m.Load(a)) }

// StoreF64 writes a float64 at a.
func StoreF64(m Mem, a mem.Addr, f float64) { m.Store(a, mem.F2W(f)) }

// LoadInt reads a signed integer stored at a.
func LoadInt(m Mem, a mem.Addr) int64 { return int64(m.Load(a)) }

// StoreInt writes a signed integer at a.
func StoreInt(m Mem, a mem.Addr, v int64) { m.Store(a, uint64(v)) }
