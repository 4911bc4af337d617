package tm

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"github.com/stamp-go/stamp/internal/rng"
	"github.com/stamp-go/stamp/internal/thread"
	"github.com/stamp-go/stamp/internal/tm/chaos"
	"github.com/stamp-go/stamp/internal/tm/trace"
)

// ContentionManager is the per-thread contention-management policy a runtime
// consults around its retry loop. The runtime drives the three lifecycle
// hooks — OnStart when an atomic block is entered, OnAbort after each failed
// attempt (where the policy applies its delay), OnCommit when the block
// finally commits (where per-block state such as abort counters and
// timestamps resets, uniformly across runtimes) — and, at conflict points
// where the enemy transaction is identifiable, asks ShouldAbort whether to
// abort itself or wait the enemy out.
//
// Lifecycle hooks are called only by the owning thread. Priority and
// ShouldAbort are also called by *other* threads' arbitration, so
// implementations must keep any state those methods read atomic.
//
// Policies are registered by name (see CMNames) and selected per run through
// Config.CM, so ablations sweep policies without touching runtime code.
type ContentionManager interface {
	// Name returns the registry name of the policy (e.g. "randlin").
	Name() string
	// OnStart is called once when an atomic block is entered, before the
	// first attempt (timestamp policies stamp the block here; the serialize
	// policy joins the global reader group).
	OnStart()
	// OnAbort is called after the aborts-th failed attempt of the current
	// block (1 = first abort). The policy applies its delay before
	// returning; the runtime then retries the block.
	OnAbort(aborts int)
	// OnCommit is called when the current block commits. All per-block
	// policy state (timestamps, consecutive-abort escalation) resets here,
	// so a block's aborts never bleed into the next block's priority or
	// delay — every runtime gets the same reset semantics for free.
	OnCommit()
	// Priority returns the arbitration priority other transactions compare
	// against; higher wins. Delay-only policies return 0.
	Priority() uint64
	// ShouldAbort reports whether the calling transaction should abort
	// itself at a conflict with enemy (true), or wait briefly for enemy to
	// finish and re-probe the conflicting location (false). A nil enemy
	// (unidentifiable, e.g. NOrec's value-validation failures) always
	// aborts the caller.
	ShouldAbort(enemy ContentionManager) bool
}

// DefaultCM is the policy STMs and hybrids use when Config.CM is empty: the
// paper's randomized linear backoff.
const DefaultCM = "randlin"

// NoCM is the policy the simulated HTMs use when Config.CM is empty:
// immediate restart with no delay (Section IV: aborted hardware transactions
// restart immediately; the eager HTM has its own priority escape).
const NoCM = "none"

// cmEntry is one registered policy.
type cmEntry struct {
	description string
	make        func(p *CMPool, id int, st *ThreadStats) ContentionManager
}

var cmRegistry = map[string]cmEntry{
	"randlin": {
		description: "randomized linear backoff after BackoffAfter aborts (the paper's policy; default)",
		make: func(p *CMPool, id int, st *ThreadStats) ContentionManager {
			return &randlinCM{cmBase: p.base(id, st), after: p.cfg.BackoffAfter}
		},
	},
	"expo": {
		description: "randomized exponential backoff after BackoffAfter aborts, capped",
		make: func(p *CMPool, id int, st *ThreadStats) ContentionManager {
			return &expoCM{cmBase: p.base(id, st), after: p.cfg.BackoffAfter}
		},
	},
	"greedy": {
		description: "timestamp priority: older transaction wins, younger aborts, winner waits (Guerraoui et al.)",
		make: func(p *CMPool, id int, st *ThreadStats) ContentionManager {
			return &greedyCM{cmBase: p.base(id, st)}
		},
	},
	"karma": {
		description: "work-based priority accrued across aborted attempts; ties lose, plus linear delay",
		make: func(p *CMPool, id int, st *ThreadStats) ContentionManager {
			return &karmaCM{cmBase: p.base(id, st), after: p.cfg.BackoffAfter}
		},
	},
	"serialize": {
		description: "randlin, then irrevocable escalation: after SerializeAfter aborts the block drains peers and runs alone",
		make: func(p *CMPool, id int, st *ThreadStats) ContentionManager {
			return &serializeCM{cmBase: p.base(id, st), after: p.cfg.BackoffAfter}
		},
	},
	"none": {
		description: "no delay, requester always aborts (immediate restart; the HTM simulators' default)",
		make: func(p *CMPool, id int, st *ThreadStats) ContentionManager {
			return noneCM{}
		},
	},
}

// CMNames returns every registered contention-manager policy name, sorted.
func CMNames() []string {
	names := make([]string, 0, len(cmRegistry))
	for n := range cmRegistry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// CMDescription returns the one-line description of a registered policy
// (empty for unknown names).
func CMDescription(name string) string { return cmRegistry[name].description }

// CMPool holds one TM system's contention-management state: the selected
// policy, the cross-thread pieces some policies need (the greedy timestamp
// clock), and the liveness layer's shared state — the irrevocability gate
// every governor coordinates through, the fault injector, and the watchdog.
// Runtime constructors create one pool and draw a per-thread manager for
// each worker slot.
type CMPool struct {
	name  string
	cfg   Config
	entry cmEntry

	clock atomic.Uint64 // greedy timestamps, shared by the pool's managers

	// Liveness layer (see governor.go). flags[i] != 0 means worker i is
	// inside an atomic block; gatePending counts escalations queued or
	// running; gateLock is the irrevocability token, a CAS spinlock so
	// every wait on it can poll the watch.
	flags       []PaddedUint64
	gateLock    atomic.Uint32
	gatePending atomic.Int32

	chaos *chaos.Injector
	watch *Watch

	starveAfter int   // consecutive-abort escalation threshold (<= 0: off)
	starveNs    int64 // age-based escalation threshold (0: off)
	serializeAt int   // the serialize policy's own threshold (0 for others)
}

// NewCMPool validates Config.CM against the registry and returns the pool.
// An empty Config.CM selects fallback — the runtime's historical default
// (DefaultCM for STMs and hybrids, NoCM for the simulated HTMs), keeping
// default behavior identical to the pre-plug-in runtimes. The pool also
// builds the system's fault injector from Config.Chaos and carries the
// escalation thresholds and watchdog, so every runtime inherits the
// liveness layer through the one seam it already has.
func NewCMPool(cfg Config, fallback string) (*CMPool, error) {
	name := cfg.CM
	if name == "" {
		name = fallback
	}
	entry, ok := cmRegistry[name]
	if !ok {
		return nil, fmt.Errorf("tm: unknown contention manager %q (known: %v)", name, CMNames())
	}
	inj, err := chaos.New(cfg.Chaos, cfg.Threads)
	if err != nil {
		return nil, fmt.Errorf("tm: %w", err)
	}
	threads := cfg.Threads
	if threads < 1 {
		threads = 1
	}
	p := &CMPool{
		name:        name,
		cfg:         cfg,
		entry:       entry,
		flags:       make([]PaddedUint64, threads),
		chaos:       inj,
		watch:       cfg.Watch,
		starveAfter: cfg.StarveAfter,
		starveNs:    cfg.StarveAfterNs,
	}
	if name == "serialize" {
		p.serializeAt = cfg.SerializeAfter
	}
	return p, nil
}

// Name returns the resolved policy name.
func (p *CMPool) Name() string { return p.name }

// Chaos returns the pool's fault injector (nil when Config.Chaos is empty).
// Runtimes fetch it once at construction and test it per failpoint site.
func (p *CMPool) Chaos() *chaos.Injector { return p.chaos }

// ForThread returns worker slot id's manager, recording its delay statistics
// into st. The selected policy is wrapped in the liveness governor, which
// adds starvation escalation, watchdog polling, and displacement arbitration
// uniformly across policies (see governor.go).
func (p *CMPool) ForThread(id int, st *ThreadStats) ContentionManager {
	return &governor{inner: p.entry.make(p, id, st), pool: p, id: id, st: st}
}

func (p *CMPool) base(id int, st *ThreadStats) cmBase {
	return cmBase{pool: p, id: id, st: st, r: rng.New(p.cfg.Seed + uint64(id)*0x9e3779b97f4a7c15)}
}

// cmBase is the state shared by the policy implementations: the pool, the
// owning thread's id and statistics record, and a per-thread jitter stream.
type cmBase struct {
	pool *CMPool
	id   int
	st   *ThreadStats
	r    *rng.Rand
}

// delay spins for n iterations and accounts the wait in the thread's stats
// (and, when the current block is being traced, as an EvWait event).
func (b *cmBase) delay(n int) {
	if n <= 0 {
		return
	}
	b.st.CMWaits++
	b.st.Tracer.Emit(trace.EvWait, trace.CauseUnknown, b.id, int32(NoBlock), 0)
	t0 := time.Now()
	Spin(n)
	b.st.CMWaitNs += int64(time.Since(t0))
}

// maxConflictProbes bounds how many times a waiting policy may re-probe one
// conflict before the runtime forces the requester to abort anyway, so no
// policy choice can deadlock or livelock a runtime.
const maxConflictProbes = 512

// WaitOrAbort is the conflict-point arbitration helper runtimes call when
// the enemy transaction is identifiable. It returns true when the caller
// must abort its attempt now; false means the policy chose to wait — w has
// paced the wait (a spin while every thread holds a P, else a yield, since
// the enemy may need this core to finish or to notice it lost and roll
// back) and the caller should re-probe the conflicting location. w is the
// caller's waiter for this one conflict; past maxConflictProbes pauses the
// wait is cut off.
func WaitOrAbort(self, enemy ContentionManager, w *thread.Waiter) bool {
	if self == nil || w.Polls() >= maxConflictProbes || self.ShouldAbort(enemy) {
		return true
	}
	w.Pause()
	return false
}

// randlin is the paper's contention manager: no delay for the first `after`
// aborts, then a delay drawn uniformly from a linearly growing budget.
type randlinCM struct {
	cmBase
	after int
}

func (c *randlinCM) Name() string       { return "randlin" }
func (c *randlinCM) OnStart()           {}
func (c *randlinCM) OnAbort(aborts int) { c.delay(c.delayFor(aborts)) }
func (c *randlinCM) OnCommit()          {}
func (c *randlinCM) Priority() uint64   { return 0 }

func (c *randlinCM) ShouldAbort(ContentionManager) bool { return true }

func (c *randlinCM) delayFor(aborts int) int {
	if aborts <= c.after {
		return 0
	}
	return c.r.Intn((aborts-c.after)*backoffUnit) + 1
}

// expoCM backs off exponentially: the delay budget doubles per abort past
// the threshold, capped so the worst delay stays sub-millisecond.
type expoCM struct {
	cmBase
	after int
}

// expoUnit is the spin budget of the first exponential step; expoCap bounds
// the doubling (2^10 * 300 spins ≈ a few hundred microseconds).
const (
	expoUnit = 300
	expoCap  = 10
)

func (c *expoCM) Name() string       { return "expo" }
func (c *expoCM) OnStart()           {}
func (c *expoCM) OnAbort(aborts int) { c.delay(c.delayFor(aborts)) }
func (c *expoCM) OnCommit()          {}
func (c *expoCM) Priority() uint64   { return 0 }

func (c *expoCM) ShouldAbort(ContentionManager) bool { return true }

func (c *expoCM) delayFor(aborts int) int {
	if aborts <= c.after {
		return 0
	}
	exp := aborts - c.after
	if exp > expoCap {
		exp = expoCap
	}
	return c.r.Intn((1<<uint(exp))*expoUnit) + 1
}

// greedyCM is the Greedy manager (Guerraoui, Herlihy & Pochon): every block
// takes a timestamp from the pool clock at OnStart and keeps it across
// retries, so a transaction only ages. At a conflict the younger transaction
// aborts itself and the older waits, which bounds how often any block can
// lose and rules out the mutual-abort livelock of symmetric policies.
type greedyCM struct {
	cmBase
	ts atomic.Uint64 // timestamp of the current block; 0 = not in a block
}

func (c *greedyCM) Name() string { return "greedy" }
func (c *greedyCM) OnStart()     { c.ts.Store(c.pool.clock.Add(1)) }

// OnAbort applies a short randomized hold-off (priority is retained across
// retries). Without it a loser restarts so fast that its conflict-detection
// footprint is re-published before the waiting winner can re-probe, and the
// winner starves behind a loser that can never get past it — the hold-off
// opens the window the winner's wait loop needs.
func (c *greedyCM) OnAbort(int) { c.delay(c.r.Intn(backoffUnit) + 1) }
func (c *greedyCM) OnCommit()   { c.ts.Store(0) }
func (c *greedyCM) Priority() uint64 {
	t := c.ts.Load()
	if t == 0 {
		return 0
	}
	return ^t // older (smaller timestamp) = higher priority
}

func (c *greedyCM) ShouldAbort(enemy ContentionManager) bool {
	if enemy == nil {
		return true
	}
	return enemy.Priority() > c.Priority()
}

// karmaCM accrues priority with every aborted attempt — the invested
// (wasted) attempts are the transaction's karma — and resets it at commit.
// Ties lose, so two fresh transactions behave like requester-loses, while a
// long-starved block eventually outranks everyone. A short randomized linear
// delay keeps equal-karma storms from spinning hot.
type karmaCM struct {
	cmBase
	after int
	karma atomic.Uint64
}

func (c *karmaCM) Name() string { return "karma" }
func (c *karmaCM) OnStart()     {}
func (c *karmaCM) OnAbort(aborts int) {
	c.karma.Add(1)
	if aborts > c.after {
		c.delay(c.r.Intn((aborts-c.after)*backoffUnit/4) + 1)
	}
}
func (c *karmaCM) OnCommit()        { c.karma.Store(0) }
func (c *karmaCM) Priority() uint64 { return c.karma.Load() }

func (c *karmaCM) ShouldAbort(enemy ContentionManager) bool {
	if enemy == nil {
		return true
	}
	return enemy.Priority() >= c.Priority()
}

// serializeCM is randlin-style delay; its signature trait — escalating a
// block that aborted SerializeAfter times to run alone and irrevocably — is
// implemented by the governor, which watches CMPool.serializeAt (set only for
// this policy). Moving the escalation into the governor turned it from a
// policy-local mutual-exclusion fallback into the same guaranteed-commit path
// every policy's starvation watchdog uses.
type serializeCM struct {
	cmBase
	after int
}

func (c *serializeCM) Name() string { return "serialize" }
func (c *serializeCM) OnStart()     {}
func (c *serializeCM) OnAbort(aborts int) {
	if aborts > c.after {
		c.delay(c.r.Intn((aborts-c.after)*backoffUnit) + 1)
	}
}
func (c *serializeCM) OnCommit()                          {}
func (c *serializeCM) Priority() uint64                   { return 0 }
func (c *serializeCM) ShouldAbort(ContentionManager) bool { return true }

// noneCM applies no delay and always aborts the requester — the simulated
// HTMs' immediate-restart behavior, and a useful ablation baseline.
type noneCM struct{}

func (noneCM) Name() string                       { return "none" }
func (noneCM) OnStart()                           {}
func (noneCM) OnAbort(int)                        {}
func (noneCM) OnCommit()                          {}
func (noneCM) Priority() uint64                   { return 0 }
func (noneCM) ShouldAbort(ContentionManager) bool { return true }
