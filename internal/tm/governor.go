package tm

import (
	"sync/atomic"

	"github.com/stamp-go/stamp/internal/thread"
	"github.com/stamp-go/stamp/internal/tm/chaos"
	"github.com/stamp-go/stamp/internal/tm/trace"
)

// The governor is the liveness layer every contention-management policy runs
// under. CMPool.ForThread wraps the selected policy in one, so every
// concurrent runtime inherits three guarantees through the driver's three
// contention-manager calls:
//
//   - starvation escalation: past Config.StarveAfter consecutive aborts,
//     the block acquires the pool's global irrevocability token, drains
//     every in-flight peer, and runs alone with fault injection suppressed
//     — so it must commit. This is a guarantee, not a heuristic: it works
//     under every policy, including "none".
//   - watchdog polling: every attempt boundary and every wait loop the
//     governor owns polls Config.Watch, so a halted run unwinds with
//     HaltSignal instead of spinning forever.
//   - commit accounting: the governor bumps the watch's per-thread commit
//     slot and delegates OnCommit to the wrapped policy, which is where all
//     per-block policy state (karma, greedy timestamps, abort counters)
//     resets — an escalated block does not stay escalation-biased.
//
// The gate is a Dekker-style epoch protocol, not a reader-writer mutex, so
// every wait loop in it can poll the watch: each worker publishes an
// in-a-block flag on its own padded line (flags[id].Store(1), then re-check
// gatePending — sequentially consistent atomics make the store/load pair
// safe); an escalator publishes gatePending, then waits each flag out.
// Either the worker sees the pending escalation and parks, or the escalator
// sees the claim and waits for that attempt to finish — OnAbort and OnCommit
// run with no protocol locks held, so every in-flight attempt drains without
// the escalator's help, and the drain cannot deadlock.
type governor struct {
	inner ContentionManager
	pool  *CMPool
	id    int
	st    *ThreadStats

	// irrevocable is read cross-thread (Priority/ShouldAbort arbitration).
	irrevocable atomic.Bool
	// displaced is owner-thread only: set when ShouldAbort aborted the
	// caller to yield to a pending escalation, consumed by
	// CauseOrDisplaced at the abort site.
	displaced bool

	// OnStart writes displaced on every block: keep the next worker's
	// governor, allocated right after this one, off this one's last line.
	_ [64]byte
}

// Name returns the wrapped policy's registry name, so Result.CM and the
// stats surface keep reporting the selected policy.
func (g *governor) Name() string { return g.inner.Name() }

func (g *governor) OnStart() {
	p := g.pool
	p.watch.Poll()
	g.displaced = false
	g.enterGate()
	g.inner.OnStart()
}

// enterGate joins the in-a-block group, parking while an escalation is
// pending or running.
func (g *governor) enterGate() {
	p := g.pool
	for {
		p.flags[g.id].Store(1)
		if p.gatePending.Load() == 0 {
			return
		}
		// An escalator is draining or running: retreat and wait it out.
		p.flags[g.id].Store(0)
		w := thread.Waiter{Parties: p.cfg.Threads}
		for p.gatePending.Load() != 0 {
			p.watch.Poll()
			w.Pause()
		}
	}
}

func (g *governor) OnAbort(aborts int) {
	p := g.pool
	if g.irrevocable.Load() {
		// Already alone; only an explicit Restart (or an HTM capacity
		// retry) can abort us here, and the next attempt keeps the token.
		p.watch.Poll()
		return
	}
	p.watch.Poll()
	if p.starveAfter > 0 && aborts >= p.starveAfter {
		g.escalate()
		return
	}
	if p.gatePending.Load() > 0 {
		// Someone else is escalating: leave the group so their drain
		// completes, wait, and rejoin before retrying.
		p.flags[g.id].Store(0)
		g.enterGate()
	}
	g.inner.OnAbort(aborts)
}

// escalate acquires the irrevocability token: publish the pending count
// (parking new entrants), leave the in-a-block group (we already rolled
// back, and a queued second escalator must not wait on our flag), take the
// token lock, drain every peer's flag, and rejoin as the sole runner with
// fault injection suppressed.
func (g *governor) escalate() {
	p := g.pool
	p.gatePending.Add(1)
	p.flags[g.id].Store(0)
	w := thread.Waiter{Parties: p.cfg.Threads}
	for !p.gateLock.CompareAndSwap(0, 1) {
		p.watch.Poll()
		w.Pause()
	}
	for i := range p.flags {
		if i == g.id {
			continue
		}
		drain := thread.Waiter{Parties: p.cfg.Threads}
		for p.flags[i].Load() != 0 {
			p.watch.Poll()
			drain.Pause()
		}
	}
	p.flags[g.id].Store(1)
	p.chaos.Suppress(g.id, true)
	g.irrevocable.Store(true)
	g.st.Escalations++
}

func (g *governor) OnCommit() {
	p := g.pool
	if g.irrevocable.Load() {
		g.st.EscalatedCommits++
		g.irrevocable.Store(false)
		p.chaos.Suppress(g.id, false)
		p.flags[g.id].Store(0)
		p.gateLock.Store(0)
		p.gatePending.Add(-1)
	} else {
		p.flags[g.id].Store(0)
	}
	// The wrapped policy's OnCommit is the centralized reset point for all
	// per-block state (karma, greedy timestamps), escalated or not.
	g.inner.OnCommit()
	p.watch.Bump(g.id)
}

func (g *governor) Priority() uint64 {
	if g.irrevocable.Load() {
		return ^uint64(0)
	}
	return g.inner.Priority()
}

func (g *governor) ShouldAbort(enemy ContentionManager) bool {
	if g.irrevocable.Load() {
		// We run alone; any apparent conflict is stale metadata about to
		// clear. Wait it out (bounded by maxConflictProbes).
		return false
	}
	if e, ok := enemy.(*governor); ok && e.irrevocable.Load() {
		// Never abort at a conflict with an irrevocable holder: it is
		// guaranteed to commit and release promptly, so waiting is bounded
		// and aborting is wasted work — uniformly, regardless of the
		// wrapped policy.
		return false
	}
	p := g.pool
	if p.chaos.Fire(chaos.CMWaitDrop, g.id) {
		return true
	}
	if p.gatePending.Load() > 0 {
		// An escalator is waiting for us to finish: yield now rather than
		// probe the conflict for up to maxConflictProbes rounds. The
		// abort site stamps this as killed-for-irrevocable via
		// CauseOrDisplaced.
		g.displaced = true
		return true
	}
	return g.inner.ShouldAbort(enemy)
}

// AbandonBlock releases a block's contention-manager claims without a
// commit. The terminal alloc-exhaustion path calls it from the retry loop
// after the final abort is accounted, just before unwinding the block with
// AllocFailure: the thread leaves the in-a-block gate group (so a later
// escalator's drain never waits on a thread that is gone), and if the block
// itself had escalated to irrevocable mode it releases the token — parked
// peers resume — without counting an escalated commit. Per-block policy
// state resets through the wrapped policy's OnCommit, exactly as on a real
// block end. Safe on any ContentionManager; non-governor managers carry no
// cross-thread claims and need no cleanup.
func AbandonBlock(cm ContentionManager) {
	g, ok := cm.(*governor)
	if !ok {
		return
	}
	p := g.pool
	if g.irrevocable.Load() {
		g.irrevocable.Store(false)
		p.chaos.Suppress(g.id, false)
		p.flags[g.id].Store(0)
		p.gateLock.Store(0)
		p.gatePending.Add(-1)
	} else {
		p.flags[g.id].Store(0)
	}
	g.inner.OnCommit()
}

// CauseOrDisplaced resolves the abort cause at a WaitOrAbort conflict site:
// if cm's arbitration just aborted the caller to yield to a pending
// irrevocable escalation, the abort is attributed to killed-for-irrevocable;
// otherwise the site's natural cause stands. The displaced flag is consumed.
func CauseOrDisplaced(cm ContentionManager, natural trace.AbortCause) trace.AbortCause {
	if g, ok := cm.(*governor); ok && g.displaced {
		g.displaced = false
		return trace.CauseKilledForIrrevocable
	}
	return natural
}
