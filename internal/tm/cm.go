package tm

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"github.com/stamp-go/stamp/internal/rng"
	"github.com/stamp-go/stamp/internal/tm/trace"
)

// ContentionManager is the per-thread contention-management policy the
// driver consults around its retry loop. The driver calls the three
// lifecycle hooks — OnStart when an atomic block is entered, OnAbort after
// each failed attempt (where the policy applies its delay), OnCommit when
// the block finally commits (where per-block state such as abort counters
// and timestamps resets, uniformly across runtimes) — and, at conflict
// points where the enemy transaction is identifiable (TxCore.Conflict),
// asks ShouldAbort whether to abort itself or wait the enemy out. A policy
// is bare: starvation escalation, watchdog polling and commit accounting
// belong to the driver, and a conflict involving an irrevocable holder or a
// pending escalation never reaches the policy.
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
	// first attempt (timestamp policies stamp the block here).
	OnStart()
	// OnAbort is called after the aborts-th failed attempt of the current
	// block (1 = first abort). The policy applies its delay before
	// returning; the runtime then retries the block.
	OnAbort(aborts int)
	// OnCommit is called when the current block commits, or is abandoned
	// on a terminal allocation failure. All per-block policy state
	// (timestamps, karma) resets here,
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
		description: "randomized linear backoff after 3 aborts (the paper's policy; default)",
		make: func(p *CMPool, id int, st *ThreadStats) ContentionManager {
			return &randlinCM{cmBase: p.base(id, st)}
		},
	},
	"expo": {
		description: "randomized exponential backoff after 3 aborts, capped",
		make: func(p *CMPool, id int, st *ThreadStats) ContentionManager {
			return &expoCM{cmBase: p.base(id, st)}
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
			return &karmaCM{cmBase: p.base(id, st)}
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
// policy and the cross-thread pieces some policies need (the greedy
// timestamp clock). Runtime constructors create one pool and draw a
// per-thread manager for each worker slot.
type CMPool struct {
	name  string
	cfg   Config
	entry cmEntry

	clock atomic.Uint64 // greedy timestamps, shared by the pool's managers
}

// NewCMPool validates Config.CM against the registry and returns the pool.
// An empty Config.CM selects fallback — the runtime's historical default
// (DefaultCM for STMs and hybrids, NoCM for the simulated HTMs), keeping
// default behavior identical to the pre-plug-in runtimes.
func NewCMPool(cfg Config, fallback string) (*CMPool, error) {
	name := cfg.CM
	if name == "" {
		name = fallback
	}
	entry, ok := cmRegistry[name]
	if !ok {
		return nil, fmt.Errorf("tm: unknown contention manager %q (known: %v)", name, CMNames())
	}
	return &CMPool{name: name, cfg: cfg, entry: entry}, nil
}

// Name returns the resolved policy name.
func (p *CMPool) Name() string { return p.name }

// ForThread returns worker slot id's manager, recording its delay statistics
// into st. The driver calls the policy directly; the liveness guarantees
// every policy runs under live in the driver's escalation gate (gate.go).
func (p *CMPool) ForThread(id int, st *ThreadStats) ContentionManager {
	return p.entry.make(p, id, st)
}

func (p *CMPool) base(id int, st *ThreadStats) cmBase {
	return cmBase{pool: p, id: id, st: st, r: *rng.New(p.cfg.Seed + uint64(id)*0x9e3779b97f4a7c15)}
}

// cmBase is the state shared by the policy implementations: the pool, the
// owning thread's id and statistics record, and a per-thread jitter stream.
// The stream is held by value, inside the policy, so each draw writes the
// policy's own padded lines rather than a small separate allocation that
// sits beside the next worker's.
type cmBase struct {
	pool *CMPool
	id   int
	st   *ThreadStats
	r    rng.Rand
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

// randlin is the paper's contention manager: no delay for the first 3
// aborts, then a delay drawn uniformly from a linearly growing budget.
type randlinCM struct {
	cmBase
	_ [64]byte // keep the next worker's policy off this one's last line
}

func (c *randlinCM) Name() string       { return "randlin" }
func (c *randlinCM) OnStart()           {}
func (c *randlinCM) OnAbort(aborts int) { c.delay(c.delayFor(aborts)) }
func (c *randlinCM) OnCommit()          {}
func (c *randlinCM) Priority() uint64   { return 0 }

func (c *randlinCM) ShouldAbort(ContentionManager) bool { return true }

func (c *randlinCM) delayFor(aborts int) int {
	if aborts <= backoffAborts {
		return 0
	}
	return c.r.Intn((aborts-backoffAborts)*backoffUnit) + 1
}

// expoCM backs off exponentially: the delay budget doubles per abort past
// the threshold, capped so the worst delay stays sub-millisecond.
type expoCM struct {
	cmBase
	_ [64]byte // keep the next worker's policy off this one's last line
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
	if aborts <= backoffAborts {
		return 0
	}
	exp := aborts - backoffAborts
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
	_  [64]byte      // keep the next worker's policy off this one's last line
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
	karma atomic.Uint64
	_     [64]byte // keep the next worker's policy off this one's last line
}

func (c *karmaCM) Name() string { return "karma" }
func (c *karmaCM) OnStart()     {}
func (c *karmaCM) OnAbort(aborts int) {
	c.karma.Add(1)
	if aborts > backoffAborts {
		c.delay(c.r.Intn((aborts-backoffAborts)*backoffUnit/4) + 1)
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

// noneCM applies no delay and always aborts the requester — the simulated
// HTMs' immediate-restart behavior, and a useful ablation baseline.
type noneCM struct{}

func (noneCM) Name() string                       { return "none" }
func (noneCM) OnStart()                           {}
func (noneCM) OnAbort(int)                        {}
func (noneCM) OnCommit()                          {}
func (noneCM) Priority() uint64                   { return 0 }
func (noneCM) ShouldAbort(ContentionManager) bool { return true }
