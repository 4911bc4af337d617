// Package chaos is the deterministic fault-injection layer under the TM
// runtimes. It sits below package tm (like package trace) so both tm and the
// runtime subpackages can arm failpoints without an import cycle.
//
// A failpoint is a named Site in a runtime's conflict or commit path. A
// chaos spec — "seed:site:prob[,site:prob...]" — arms a subset of sites with
// per-site firing probabilities; every worker thread draws from its own
// seeded splitmix64 stream, so a given (spec, thread count, schedule) fires
// the same points in the same per-thread order on every run. Disarmed chaos
// is a nil *Injector, and every method is a nil-receiver no-op, so the hot
// path of a normal run pays one pointer test per site.
//
// Sites come in three kinds:
//
//   - spurious-abort: the runtime aborts the attempt as if the protocol had
//     detected a real conflict there, stamped with the site's natural abort
//     cause (so the closed-taxonomy invariant — no unknown causes — holds
//     under injection too);
//   - stall: the runtime spins for a bounded window at a point where it
//     holds protocol resources (stripe locks, the sequence lock, a quiesce),
//     widening the race windows other threads conflict against;
//   - drop-wait: a contention-manager wait decision is overridden to an
//     immediate abort, as if the policy had no patience.
//
// Stalls and drops perturb timing only; spurious aborts add retries. None of
// the kinds may break safety — conformance sweeps assert conservation and
// cause accounting with every site armed.
package chaos

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/stamp-go/stamp/internal/rng"
	"github.com/stamp-go/stamp/internal/thread"
)

// Site names one failpoint location in a runtime's conflict/commit path.
type Site uint8

const (
	// TL2LockAcquire fires in the TL2-style commit paths (stm-lazy,
	// stm-eager, stm-mv writers) where the committer acquires per-stripe
	// locks: a spurious lost-acquisition abort.
	TL2LockAcquire Site = iota
	// TL2LockRelease stalls a TL2-style committer between writeback and
	// stripe-lock release — the window other transactions see the locks
	// held.
	TL2LockRelease
	// NorecSeqTick stalls a NOrec committer while it holds the sequence
	// lock (between writeback and the release store), stretching the
	// window every other commit serializes behind.
	NorecSeqTick
	// NorecValidate fires in the NOrec commit/validation path: a spurious
	// value-validation failure.
	NorecValidate
	// HybridSigCheck fires at the hybrid runtimes' signature probes: a
	// spurious signature conflict.
	HybridSigCheck
	// HTMArbitrate fires in the simulated HTMs' conflict paths: a spurious
	// line-conflict abort (never in the lazy HTM's serialized overflow
	// mode, which performs direct stores).
	HTMArbitrate
	// MVRingPublish stalls an stm-mv committer mid version-ring publish,
	// while it holds its stripe locks.
	MVRingPublish
	// CMWaitDrop overrides a contention-manager wait decision at a
	// conflict site (tm.TxCore.Conflict) to an immediate abort.
	CMWaitDrop
	// AllocExhaust fires in every runtime's tx.Alloc: a spurious
	// alloc-exhausted abort, as if the arena had run dry at that allocation
	// (without the terminal unwind a real capacity miss adds, so the
	// attempt retries — and starvation escalation, which suppresses chaos,
	// guarantees progress under a probability-1 arm).
	AllocExhaust
	// SwapStall stalls the serving-mode epoch-swap recycler between
	// quiescing the worker pool and installing the fresh arena, stretching
	// the window requests are held at admission.
	SwapStall

	// NumSites bounds per-site arrays.
	NumSites
)

// SiteInfo describes one registered failpoint for listings (-list-chaos).
type SiteInfo struct {
	Site        Site
	Name        string
	Kind        string // "spurious-abort", "stall", or "drop-wait"
	Description string
}

var siteInfos = [NumSites]SiteInfo{
	TL2LockAcquire: {TL2LockAcquire, "tl2-lock-acquire", "spurious-abort", "TL2-style commit loses a stripe-lock acquisition (stm-lazy, stm-eager, stm-mv writers)"},
	TL2LockRelease: {TL2LockRelease, "tl2-lock-release", "stall", "TL2-style committer stalls holding its stripe locks, after writeback"},
	NorecSeqTick:   {NorecSeqTick, "norec-seq-tick", "stall", "NOrec committer stalls holding the global sequence lock"},
	NorecValidate:  {NorecValidate, "norec-validate", "spurious-abort", "NOrec writer-commit validation spuriously fails (stm-norec)"},
	HybridSigCheck: {HybridSigCheck, "hybrid-sig-check", "spurious-abort", "hybrid signature probe spuriously reports a conflict (hybrid-lazy, hybrid-eager)"},
	HTMArbitrate:   {HTMArbitrate, "htm-arbitrate", "spurious-abort", "simulated-HTM conflict detection spuriously fires (htm-lazy, htm-eager; never in serialized overflow mode)"},
	MVRingPublish:  {MVRingPublish, "mv-ring-publish", "stall", "stm-mv committer stalls mid version-ring publish, stripe locks held"},
	CMWaitDrop:     {CMWaitDrop, "cm-wait-drop", "drop-wait", "a contention-manager wait decision becomes an immediate abort"},
	AllocExhaust:   {AllocExhaust, "alloc-exhaust", "spurious-abort", "tx.Alloc spuriously reports the arena exhausted (every runtime; the attempt retries)"},
	SwapStall:      {SwapStall, "swap-stall", "stall", "serving-mode epoch swap stalls between worker-pool quiesce and arena install"},
}

// Sites returns every registered failpoint in enum order.
func Sites() []SiteInfo {
	out := make([]SiteInfo, NumSites)
	copy(out, siteInfos[:])
	return out
}

// Name returns the registry name of the site (e.g. "tl2-lock-acquire").
func (s Site) Name() string {
	if s < NumSites {
		return siteInfos[s].Name
	}
	return "invalid"
}

func siteByName(name string) (Site, bool) {
	for _, info := range siteInfos {
		if info.Name == name {
			return info.Site, true
		}
	}
	return 0, false
}

// Plan is a parsed chaos spec: the base seed and one firing probability per
// site (0 = disarmed).
type Plan struct {
	Seed  uint64
	Probs [NumSites]float64
}

// Parse parses a chaos spec of the form "seed:site:prob[,site:prob...]".
// The empty spec means chaos off and returns (nil, nil). Probabilities are
// in [0, 1]; a site listed twice is an error.
func Parse(spec string) (*Plan, error) {
	if spec == "" {
		return nil, nil
	}
	parts := strings.Split(spec, ",")
	head := strings.SplitN(parts[0], ":", 2)
	if len(head) != 2 {
		return nil, fmt.Errorf("chaos: spec %q: want seed:site:prob[,site:prob...]", spec)
	}
	seed, err := strconv.ParseUint(head[0], 0, 64)
	if err != nil {
		return nil, fmt.Errorf("chaos: spec %q: bad seed %q: %v", spec, head[0], err)
	}
	p := &Plan{Seed: seed}
	parts[0] = head[1]
	seen := [NumSites]bool{}
	for _, arm := range parts {
		sp := strings.Split(arm, ":")
		if len(sp) != 2 {
			return nil, fmt.Errorf("chaos: spec %q: arm %q: want site:prob", spec, arm)
		}
		site, ok := siteByName(sp[0])
		if !ok {
			return nil, fmt.Errorf("chaos: spec %q: unknown site %q (known: %v)", spec, sp[0], siteNames())
		}
		if seen[site] {
			return nil, fmt.Errorf("chaos: spec %q: site %q armed twice", spec, sp[0])
		}
		seen[site] = true
		prob, err := strconv.ParseFloat(sp[1], 64)
		if err != nil || prob < 0 || prob > 1 {
			return nil, fmt.Errorf("chaos: spec %q: site %q: probability %q not in [0, 1]", spec, sp[0], sp[1])
		}
		p.Probs[site] = prob
	}
	return p, nil
}

func siteNames() []string {
	names := make([]string, NumSites)
	for i, info := range siteInfos {
		names[i] = info.Name
	}
	return names
}

// thresholdOf maps a probability to a uint64 comparison threshold so Fire is
// one rng step and one compare. prob 1 always fires; prob 0 never does.
func thresholdOf(prob float64) uint64 {
	if prob <= 0 {
		return 0
	}
	if prob >= 1 {
		return ^uint64(0)
	}
	// Scale into [0, 2^63) then double, staying clear of the float→uint64
	// conversion edge at exactly 2^64.
	return uint64(prob*float64(1<<63)) << 1
}

// injThread is one worker's injection state, padded so neighboring workers'
// rng draws never share a cache line.
type injThread struct {
	r        *rng.Rand
	suppress bool // owner-thread flag: an irrevocable attempt is running
	_        [48]byte
}

// Injector is one system's armed failpoint set. A nil Injector is the
// disarmed state; all methods are nil-receiver no-ops. Fire/Stall/Suppress
// are called only by the owning worker thread (tid), so per-thread state
// needs no atomics.
type Injector struct {
	thresholds [NumSites]uint64
	threads    []injThread
}

// New parses spec and builds the injector for a system with the given
// worker count. The empty spec returns (nil, nil) — chaos off.
func New(spec string, threads int) (*Injector, error) {
	plan, err := Parse(spec)
	if plan == nil || err != nil {
		return nil, err
	}
	return NewInjector(plan, threads), nil
}

// NewInjector builds an injector from a parsed plan. Each worker thread gets
// an independent stream seeded from the plan seed, so firing sequences are
// deterministic per thread regardless of interleaving.
func NewInjector(plan *Plan, threads int) *Injector {
	if plan == nil {
		return nil
	}
	if threads < 1 {
		threads = 1
	}
	inj := &Injector{threads: make([]injThread, threads)}
	for s := range plan.Probs {
		inj.thresholds[s] = thresholdOf(plan.Probs[s])
	}
	for i := range inj.threads {
		inj.threads[i].r = rng.New(plan.Seed + uint64(i)*0x9e3779b97f4a7c15 + 1)
	}
	return inj
}

// Fire reports whether the failpoint at site fires for worker tid this time.
// It returns false on a nil (disarmed) injector, on an unarmed site, and
// while the thread is suppressed (running an irrevocable attempt that must
// commit).
func (inj *Injector) Fire(site Site, tid int) bool {
	if inj == nil {
		return false
	}
	th := &inj.threads[tid]
	if th.suppress || inj.thresholds[site] == 0 {
		return false
	}
	// <= so a probability-1 arm fires on every draw, which the liveness
	// conformance storms rely on.
	return th.r.Uint64() <= inj.thresholds[site]
}

// stallSpins bounds a stall site's busy window. Large enough to widen the
// protocol windows other threads race against, small enough that a
// probability-1 arm still makes progress.
const stallSpins = 1 << 14

// Stall applies the site's bounded delay if the failpoint fires: a busy spin
// with periodic yields, so a stalled lock holder still lets its victims run
// on fewer cores than threads. No-op on a nil injector or unarmed site.
func (inj *Injector) Stall(site Site, tid int) {
	if !inj.Fire(site, tid) {
		return
	}
	var w thread.Waiter // no party count: every pause yields
	for i := 0; i < stallSpins; i++ {
		if i%1024 == 1023 {
			w.Pause()
		}
	}
}

// Suppress sets worker tid's suppression flag: while set, no failpoint fires
// for that thread. The escalation layer suppresses a thread for the span of
// its irrevocable attempt, which must commit. Owner-thread only.
func (inj *Injector) Suppress(tid int, on bool) {
	if inj == nil {
		return
	}
	inj.threads[tid].suppress = on
}
