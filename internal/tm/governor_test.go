package tm

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/stamp-go/stamp/internal/mem"
	"github.com/stamp-go/stamp/internal/thread"
	"github.com/stamp-go/stamp/internal/tm/trace"
)

// gateRuntime builds a runtime of fakeTx slots (driver_test.go) under cfg,
// so the escalation gate runs exactly as it does for a real protocol.
func gateRuntime(t *testing.T, cfg Config) *Runtime[*fakeTx] {
	t.Helper()
	rt, err := NewRuntime[*fakeTx]("fake", cfg, DefaultCM)
	if err != nil {
		t.Fatal(err)
	}
	rt.Bind(func(int) *fakeTx { return &fakeTx{} })
	return rt
}

// conflict runs one probe of c's conflict with slot enemy, as a barrier
// would, and reports whether it aborted the attempt and with what cause and
// blame.
func conflict(c *TxCore, enemy int, cause AbortCause, w *thread.Waiter) (aborted bool, info AbortInfo) {
	c.reset()
	ok := Attempt(nil, func(Tx) { c.Conflict(enemy, cause, 0, w) })
	return !ok, c.Info
}

// TestIrrevocableHolderNeverAborted pins the uniform arbitration guarantee:
// under every registered policy, a conflict with an irrevocable (escalated)
// holder waits — the requester pauses for the probe window instead of
// killing a transaction that must commit — and the holder waits out any
// conflict of its own.
func TestIrrevocableHolderNeverAborted(t *testing.T) {
	for _, name := range CMNames() {
		rt := gateRuntime(t, Config{Arena: mem.NewArena(64), Threads: 2, CM: name})
		holder, requester := rt.cores[0], rt.cores[1]
		holder.cm.OnStart()
		requester.cm.OnStart()
		holder.irrevocable.Store(true)
		w := thread.Waiter{Parties: 2}
		if aborted, _ := conflict(requester, holder.ID, CauseWriteWrite, &w); aborted || w.Polls() != 1 {
			t.Errorf("%s: requester aborted an irrevocable holder (aborted=%v, pauses=%d)", name, aborted, w.Polls())
		}
		w = thread.Waiter{Parties: 2}
		if aborted, _ := conflict(holder, requester.ID, CauseWriteWrite, &w); aborted || w.Polls() != 1 {
			t.Errorf("%s: irrevocable holder yielded to a requester", name)
		}
		holder.irrevocable.Store(false)
	}
}

// TestStarvationEscalation: past StarveAfter aborts, any policy (here karma)
// escalates to irrevocable mode, commits, and resets all per-block policy
// state at commit so escalation bias does not leak into the next block,
// which aborts below the threshold and commits without escalating.
func TestStarvationEscalation(t *testing.T) {
	rt := gateRuntime(t, Config{Arena: mem.NewArena(64), Threads: 2, CM: "karma", StarveAfter: 3})
	c, th := rt.cores[0], rt.Thread(0)
	attempt := 0
	th.AtomicAt(NoBlock, func(tx Tx) {
		attempt++
		if attempt <= 3 {
			if c.irrevocable.Load() {
				t.Errorf("irrevocable at attempt %d, below StarveAfter", attempt)
			}
			tx.Restart()
		}
		if !c.irrevocable.Load() {
			t.Error("not irrevocable after escalation")
		}
		if rt.gatePending.Load() != 1 || rt.gateLock.Load() != 1 {
			t.Error("gate not held after escalation")
		}
		// Two aborts reached the policy; the third escalated instead.
		if c.cm.Priority() != 2 {
			t.Errorf("karma in the escalated attempt = %d, want 2", c.cm.Priority())
		}
	})
	st := th.Stats()
	if st.Escalations != 1 || st.EscalatedCommits != 1 {
		t.Fatalf("Escalations/EscalatedCommits = %d/%d, want 1/1", st.Escalations, st.EscalatedCommits)
	}
	if c.irrevocable.Load() {
		t.Fatal("still irrevocable after commit")
	}
	if rt.gatePending.Load() != 0 || rt.gateLock.Load() != 0 {
		t.Fatal("gate not released after escalated commit")
	}
	// The policy's OnCommit reset: karma accrued during the starving block
	// (one per non-escalating abort) must be gone.
	if c.cm.Priority() != 0 {
		t.Fatalf("karma after escalated commit = %d", c.cm.Priority())
	}
	attempt = 0
	th.AtomicAt(NoBlock, func(tx Tx) {
		if attempt++; attempt == 1 {
			tx.Restart()
		}
		if c.irrevocable.Load() || rt.gatePending.Load() != 0 {
			t.Error("next block ran escalated")
		}
	})
	if st.Escalations != 1 || st.EscalatedCommits != 1 {
		t.Fatalf("escalation counters after clean block = %d/%d", st.Escalations, st.EscalatedCommits)
	}
}

// TestStarveAfterDisabled: a negative StarveAfter turns abort-count
// escalation off entirely.
func TestStarveAfterDisabled(t *testing.T) {
	rt := gateRuntime(t, Config{Arena: mem.NewArena(64), Threads: 1, CM: "none", StarveAfter: -1})
	if rt.Cfg.StarveAfter > 0 {
		t.Fatalf("StarveAfter = %d, want disabled", rt.Cfg.StarveAfter)
	}
	attempt := 0
	rt.Thread(0).Atomic(func(tx Tx) {
		if attempt++; attempt <= 4*DefaultStarveAfter {
			tx.Restart()
		}
	})
	if st := rt.Thread(0).Stats(); st.Escalations != 0 || st.Aborts != 4*DefaultStarveAfter {
		t.Fatalf("escalations=%d aborts=%d with StarveAfter < 0", st.Escalations, st.Aborts)
	}
}

// TestDisplacedCause: a requester that meets a conflict while an escalation
// is pending yields at once and is stamped killed-for-irrevocable, blaming
// the enemy's block; the stamp belongs to that conflict only — with no
// escalation pending the site's natural cause stands.
func TestDisplacedCause(t *testing.T) {
	rt := gateRuntime(t, Config{Arena: mem.NewArena(64), Threads: 2, CM: "karma"})
	a, b := rt.cores[0], rt.cores[1]
	blk := NewBlock("governor-test/enemy")
	a.curBlock.Store(int32(blk))

	rt.gatePending.Add(1) // simulate a third party announcing escalation
	w := thread.Waiter{Parties: 2}
	aborted, info := conflict(b, a.ID, CauseWriteWrite, &w)
	if !aborted || w.Polls() != 0 {
		t.Fatalf("requester did not yield to the pending escalation (aborted=%v, pauses=%d)", aborted, w.Polls())
	}
	if info.Cause != trace.CauseKilledForIrrevocable || info.Blame != blk {
		t.Fatalf("cause/blame = %v/%d, want killed-for-irrevocable/%d", info.Cause, info.Blame, blk)
	}
	rt.gatePending.Add(-1)

	// Without a pending escalation the natural cause stands.
	if _, info := conflict(b, a.ID, CauseStripeLockBusy, &thread.Waiter{}); info.Cause != trace.CauseStripeLockBusy {
		t.Fatalf("cause without displacement = %v", info.Cause)
	}
	// An enemy between blocks is blamed as NoBlock.
	a.curBlock.Store(outside)
	if _, info := conflict(b, a.ID, CauseWriteWrite, &thread.Waiter{}); info.Blame != NoBlock {
		t.Fatalf("blame of an idle enemy = %d", info.Blame)
	}
}

// TestChaosWaitDrop: an armed cm-wait-drop site forces conflicts to abort
// (requester-loses) and keeps the site's natural cause.
func TestChaosWaitDrop(t *testing.T) {
	for _, spec := range []string{"", "7:cm-wait-drop:1"} {
		rt := gateRuntime(t, Config{Arena: mem.NewArena(64), Threads: 2, CM: "greedy", Chaos: spec})
		older, younger := rt.cores[0], rt.cores[1]
		older.cm.OnStart()
		younger.cm.OnStart()
		// Greedy lets the older transaction wait; the injector drops the
		// wait.
		aborted, info := conflict(older, younger.ID, CauseWriteWrite, &thread.Waiter{Parties: 2})
		if armed := spec != ""; aborted != armed {
			t.Fatalf("chaos %q: aborted = %v, want %v", spec, aborted, armed)
		} else if armed && info.Cause != trace.CauseWriteWrite {
			t.Fatalf("chaos drop changed the cause to %v", info.Cause)
		}
	}
}

// TestEscalationDrainsPeers: an escalating block waits for the in-flight
// peer to finish its attempt, and newcomers park until the escalated block
// commits.
func TestEscalationDrainsPeers(t *testing.T) {
	rt := gateRuntime(t, Config{Arena: mem.NewArena(64), Threads: 2, CM: "none", StarveAfter: 1})
	peerIn, peerGo, peerDone := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(peerDone)
		rt.Thread(1).Atomic(func(Tx) { // the peer is mid-attempt
			close(peerIn)
			<-peerGo
		})
	}()
	<-peerIn
	escalated, commit, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		attempt := 0
		rt.Thread(0).Atomic(func(tx Tx) {
			if attempt++; attempt == 1 {
				tx.Restart() // the first abort escalates (StarveAfter 1)
			}
			close(escalated)
			<-commit
		})
	}()
	select {
	case <-escalated:
		t.Fatal("escalation completed while a peer was still in its attempt")
	case <-time.After(20 * time.Millisecond):
	}
	close(peerGo) // the peer commits and drains
	select {
	case <-escalated:
	case <-time.After(2 * time.Second):
		t.Fatal("escalation still blocked after the peer drained")
	}
	<-peerDone
	// A newcomer parks until the escalated block commits.
	entered := make(chan struct{})
	go rt.Thread(1).Atomic(func(Tx) { close(entered) })
	select {
	case <-entered:
		t.Fatal("newcomer entered during an escalated block")
	case <-time.After(20 * time.Millisecond):
	}
	close(commit)
	select {
	case <-entered:
	case <-time.After(2 * time.Second):
		t.Fatal("newcomer still parked after the escalated commit")
	}
	<-done
}

// TestGateDekkerOrder pins the order of the gate's Dekker pair: a worker
// publishes curBlock before it reads gatePending, and an escalator
// publishes gatePending before it reads its peers' curBlock. One worker
// escalates on every block while three peers run short blocks; each marks
// its attempt, and no peer attempt may overlap an irrevocable one. Reading
// gatePending before the publish lets a peer slip past a drain that has
// already counted it out; the escalator yields between blocks and inside its
// irrevocable attempt, so on one P a peer preempted inside that window runs
// its attempt while the escalated one is still live.
func TestGateDekkerOrder(t *testing.T) {
	const threads, blocks = 4, 2000
	rt := gateRuntime(t, Config{Arena: mem.NewArena(64), Threads: threads, CM: "none", StarveAfter: 1})
	var irrevocable, peers atomic.Int32
	var overlaps atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	for p := 1; p < threads; p++ {
		wg.Add(1)
		go func(th Thread) {
			defer wg.Done()
			for !stop.Load() {
				th.Atomic(func(Tx) {
					peers.Add(1)
					if irrevocable.Load() != 0 {
						overlaps.Add(1)
					}
					peers.Add(-1)
				})
			}
		}(rt.Thread(p))
	}
	th := rt.Thread(0)
	escalated := uint64(0)
	for deadline := time.Now().Add(200 * time.Millisecond); escalated < blocks && time.Now().Before(deadline); escalated++ {
		runtime.Gosched() // let the peers run between escalations
		attempt := 0
		th.Atomic(func(tx Tx) {
			if attempt++; attempt == 1 {
				tx.Restart() // StarveAfter 1: the retry runs irrevocably
			}
			irrevocable.Store(1)
			for range 4 {
				runtime.Gosched()
				if peers.Load() != 0 {
					overlaps.Add(1)
				}
			}
			irrevocable.Store(0)
		})
	}
	stop.Store(true)
	wg.Wait()
	if n := overlaps.Load(); n != 0 {
		t.Fatalf("%d probes saw a peer attempt overlap an irrevocable one", n)
	}
	if st := th.Stats(); st.EscalatedCommits != escalated {
		t.Fatalf("EscalatedCommits = %d, want %d", st.EscalatedCommits, escalated)
	}
}

// TestWatchBasics: commit accounting, halt latch, and Poll unwinding.
func TestWatchBasics(t *testing.T) {
	var nilWatch *Watch
	nilWatch.Bump(0)
	nilWatch.Poll()
	if nilWatch.Commits() != 0 || nilWatch.Halted() || nilWatch.Reason() != "" {
		t.Fatal("nil watch is not inert")
	}

	w := NewWatch(2)
	w.Bump(0)
	w.Bump(1)
	w.Bump(1)
	if got := w.Commits(); got != 3 {
		t.Fatalf("Commits() = %d, want 3", got)
	}
	w.Poll() // not halted: no panic
	w.Halt("stalled for test")
	w.Halt("late reason loses")
	if !w.Halted() || w.Reason() != "stalled for test" {
		t.Fatalf("halt latch: halted=%v reason=%q", w.Halted(), w.Reason())
	}
	defer func() {
		hs, ok := recover().(HaltSignal)
		if !ok || hs.Reason != "stalled for test" {
			t.Fatalf("Poll recovered %v", hs)
		}
	}()
	w.Poll()
	t.Fatal("Poll did not panic after Halt")
}

// TestWatchUnparksGate: a worker parked at the escalation gate unwinds with
// HaltSignal when the watch halts, instead of spinning forever.
func TestWatchUnparksGate(t *testing.T) {
	w := NewWatch(2)
	rt := gateRuntime(t, Config{Arena: mem.NewArena(64), Threads: 2, CM: "none", Watch: w})

	rt.gatePending.Add(1) // a never-finishing escalation keeps the gate shut
	unwound := make(chan HaltSignal, 1)
	go func() {
		defer func() {
			if hs, ok := recover().(HaltSignal); ok {
				unwound <- hs
			}
		}()
		rt.Thread(0).Atomic(func(Tx) { t.Error("block ran behind a shut gate") })
	}()
	time.Sleep(10 * time.Millisecond)
	w.Halt("watchdog test")
	select {
	case hs := <-unwound:
		if hs.Reason != "watchdog test" {
			t.Fatalf("HaltSignal reason = %q", hs.Reason)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("parked worker did not unwind after Halt")
	}
	rt.gatePending.Add(-1)
}
