package tm

import (
	"github.com/stamp-go/stamp/internal/thread"
	"github.com/stamp-go/stamp/internal/tm/chaos"
)

// The escalation gate is the liveness layer of the one driver. Every
// concurrent runtime inherits three guarantees through Worker.AtomicAt,
// under every contention-management policy, "none" included:
//
//   - starvation escalation: past Config.StarveAfter consecutive aborts,
//     the block acquires the runtime's irrevocability token, drains every
//     in-flight peer, and runs alone with fault injection suppressed — so it
//     must commit. This is a guarantee, not a heuristic.
//   - watchdog polling: every attempt boundary and every wait loop of the
//     gate polls Config.Watch, so a halted run unwinds with HaltSignal
//     instead of spinning forever.
//   - commit accounting: the driver bumps the watch's per-thread commit slot
//     and calls the policy's OnCommit, where all per-block policy state
//     (karma, greedy timestamps) resets — an escalated block does not stay
//     escalation-biased.
//
// The gate is a Dekker-style protocol, not a reader-writer mutex, so every
// wait loop in it can poll the watch. Its in-a-block flag is the driver's
// curBlock: a worker publishes its block there (a sequentially consistent
// store), then re-checks gatePending; an escalator publishes gatePending,
// then waits for every peer's curBlock to read outside. Either the worker
// sees the pending escalation and parks, or the escalator sees the block and
// waits for that attempt to finish. Policies delay with no protocol locks
// held, so every in-flight attempt drains without the escalator's help and
// the drain cannot deadlock. The sequential baseline never escalates
// (NewSeq turns StarveAfter off): on it the gate is a load of a word nobody writes at
// block entry and of its own irrevocable flag at block end.

// outside is curBlock's value while a worker is not inside an atomic block:
// between blocks, parked behind a pending escalation, or queued for the
// token. NoBlock cannot serve, since unattributed blocks run under it.
const outside int32 = -1

// park waits out a pending escalation with curBlock reading outside, so the
// escalator's drain passes this worker, then re-enters block b through the
// Dekker pair. Called when a block entry or a retry finds gatePending set.
func (c *TxCore) park(b BlockID) {
	for {
		c.curBlock.Store(outside)
		w := thread.Waiter{Parties: c.Cfg.Threads}
		for c.gatePending.Load() != 0 {
			c.Cfg.Watch.Poll()
			w.Pause()
		}
		c.curBlock.Store(int32(b))
		if c.gatePending.Load() == 0 {
			return
		}
	}
}

// escalate acquires the irrevocability token for block b: publish the
// pending count (parking new entrants), leave the block (this attempt has
// rolled back, and a second escalator queued behind the token must not wait
// on us), take the token, drain every peer, and re-enter as the sole runner
// with fault injection suppressed.
func (c *TxCore) escalate(b BlockID) {
	c.gatePending.Add(1)
	c.curBlock.Store(outside)
	w := thread.Waiter{Parties: c.Cfg.Threads}
	for !c.gateLock.CompareAndSwap(0, 1) {
		c.Cfg.Watch.Poll()
		w.Pause()
	}
	for _, peer := range c.cores {
		drain := thread.Waiter{Parties: c.Cfg.Threads}
		for peer != c && peer.curBlock.Load() != outside {
			c.Cfg.Watch.Poll()
			drain.Pause()
		}
	}
	c.curBlock.Store(int32(b))
	c.Chaos.Suppress(c.ID, true)
	c.irrevocable.Store(true)
	c.Stats.Escalations++
}

// release hands the token back after an irrevocable block ends, committed
// or abandoned; parked peers resume. curBlock already reads outside.
func (c *TxCore) release() {
	c.irrevocable.Store(false)
	c.Chaos.Suppress(c.ID, false)
	c.gateLock.Store(0)
	c.gatePending.Add(-1)
}

// maxConflictProbes bounds how many times a waiting policy may re-probe one
// conflict before the requester aborts anyway, so no policy choice can
// deadlock or livelock a runtime.
const maxConflictProbes = 512

// Conflict arbitrates a conflict with the transaction in slot enemy, which
// owns the location the barrier is probing. It either waits — w paces the
// wait (a spin while every thread holds a P, else a yield, since the enemy
// may need this core to finish or to notice it lost) and Conflict returns
// so the caller re-probes — or fails the attempt with the site's cause and
// key, blaming the enemy's block. w is the caller's waiter for this one
// conflict; past maxConflictProbes pauses the wait is cut off.
//
// An irrevocable party on either side is always waited for: the holder
// must commit and release promptly, so aborting is wasted work. Otherwise
// an armed cm-wait-drop failpoint aborts, a pending escalation displaces the
// attempt (stamped killed-for-irrevocable instead of the site's cause, so
// the escalator's drain does not wait out the probe window), and the
// policy decides the rest.
func (c *TxCore) Conflict(enemy int, cause AbortCause, key ConflictKey, w *thread.Waiter) {
	var e *TxCore
	if uint(enemy) < uint(len(c.cores)) {
		e = c.cores[enemy]
	}
	if w.Polls() < maxConflictProbes && c.waits(e, &cause) {
		w.Pause()
		return
	}
	blame := NoBlock
	if e != nil {
		blame = e.block()
	}
	c.Info.Fail(cause, key, blame)
}

// waits is Conflict's decision: true to wait e out; false to abort, with
// *cause rewritten when a pending escalation is what displaces the attempt.
// A nil e (a corrupt owner slot) arbitrates as unknown and aborts.
func (c *TxCore) waits(e *TxCore, cause *AbortCause) bool {
	switch {
	case c.irrevocable.Load() || e != nil && e.irrevocable.Load():
		return true
	case c.Chaos.Fire(chaos.CMWaitDrop, c.ID):
		return false
	case c.gatePending.Load() != 0:
		*cause = CauseKilledForIrrevocable
		return false
	}
	return e != nil && !c.cm.ShouldAbort(e.cm)
}
