package tm

import (
	"testing"
	"time"

	"github.com/stamp-go/stamp/internal/mem"
	"github.com/stamp-go/stamp/internal/tm/trace"
)

func governorPool(t *testing.T, cfg Config) *CMPool {
	t.Helper()
	p, err := NewCMPool(cfg.Defaults(), DefaultCM)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestIrrevocableHolderNeverAborted pins the uniform arbitration guarantee:
// under every registered policy, ShouldAbort against an irrevocable
// (escalated) holder returns false — the requester waits the
// bounded probe window instead of killing a transaction that must commit.
func TestIrrevocableHolderNeverAborted(t *testing.T) {
	for _, name := range CMNames() {
		cfg := Config{Arena: mem.NewArena(64), Threads: 2, CM: name}
		p := governorPool(t, cfg)
		var st0, st1 ThreadStats
		holder := p.ForThread(0, &st0).(*governor)
		requester := p.ForThread(1, &st1)
		holder.OnStart()
		requester.OnStart()
		holder.irrevocable.Store(true)
		if requester.ShouldAbort(holder) {
			t.Errorf("%s: requester aborted an irrevocable holder", name)
		}
		if holder.Priority() != ^uint64(0) {
			t.Errorf("%s: irrevocable holder priority = %d", name, holder.Priority())
		}
		if holder.ShouldAbort(requester) {
			t.Errorf("%s: irrevocable holder yielded to a requester", name)
		}
		holder.irrevocable.Store(false)
	}
}

// TestStarvationEscalation: past StarveAfter aborts, any policy (here karma)
// escalates to irrevocable mode, commits, and resets all per-block policy
// state at commit so escalation bias does not leak into the next block,
// which starts, aborts below the threshold and commits without escalating.
func TestStarvationEscalation(t *testing.T) {
	cfg := Config{Arena: mem.NewArena(64), Threads: 2, CM: "karma", StarveAfter: 3}
	p := governorPool(t, cfg)
	var st ThreadStats
	g := p.ForThread(0, &st).(*governor)

	g.OnStart()
	g.OnAbort(1)
	g.OnAbort(2)
	if st.Escalations != 0 {
		t.Fatal("escalated below StarveAfter")
	}
	g.OnAbort(3)
	if st.Escalations != 1 {
		t.Fatalf("Escalations = %d, want 1", st.Escalations)
	}
	if !g.irrevocable.Load() {
		t.Fatal("not irrevocable after escalation")
	}
	if p.gatePending.Load() != 1 || p.gateLock.Load() != 1 {
		t.Fatal("gate not held after escalation")
	}
	g.OnCommit()
	if st.EscalatedCommits != 1 {
		t.Fatalf("EscalatedCommits = %d, want 1", st.EscalatedCommits)
	}
	if g.irrevocable.Load() {
		t.Fatal("still irrevocable after commit")
	}
	if p.gatePending.Load() != 0 || p.gateLock.Load() != 0 {
		t.Fatal("gate not released after escalated commit")
	}
	// Centralized OnCommit reset: karma accrued during the starving block
	// (one per abort) must be gone.
	if g.Priority() != 0 {
		t.Fatalf("karma after escalated commit = %d", g.Priority())
	}
	g.OnStart()
	g.OnAbort(1)
	if g.irrevocable.Load() || p.gatePending.Load() != 0 {
		t.Fatal("next block started escalated")
	}
	g.OnCommit()
	if st.Escalations != 1 || st.EscalatedCommits != 1 {
		t.Fatalf("escalation counters after clean block = %d/%d", st.Escalations, st.EscalatedCommits)
	}
}

// TestStarveAfterDisabled: a negative StarveAfter turns abort-count
// escalation off entirely.
func TestStarveAfterDisabled(t *testing.T) {
	cfg := Config{Arena: mem.NewArena(64), Threads: 1, CM: "none", StarveAfter: -1}
	p := governorPool(t, cfg)
	if p.starveAfter > 0 {
		t.Fatalf("starveAfter = %d, want disabled", p.starveAfter)
	}
	var st ThreadStats
	g := p.ForThread(0, &st).(*governor)
	g.OnStart()
	g.OnAbort(100000)
	if st.Escalations != 0 {
		t.Fatal("escalated with StarveAfter < 0")
	}
	g.OnCommit()
}

// TestDisplacedCause: a requester that yields to a pending escalation is
// stamped killed-for-irrevocable by CauseOrDisplaced; the flag is one-shot,
// and a chaos-dropped wait keeps the site's natural cause.
func TestDisplacedCause(t *testing.T) {
	cfg := Config{Arena: mem.NewArena(64), Threads: 2, CM: "karma"}
	p := governorPool(t, cfg)
	var st0, st1 ThreadStats
	a := p.ForThread(0, &st0)
	b := p.ForThread(1, &st1)
	a.OnStart()
	b.OnStart()

	p.gatePending.Add(1) // simulate a third party announcing escalation
	if !b.ShouldAbort(a) {
		t.Fatal("requester did not yield to the pending escalation")
	}
	if got := CauseOrDisplaced(b, trace.CauseWriteWrite); got != trace.CauseKilledForIrrevocable {
		t.Fatalf("cause = %v, want killed-for-irrevocable", got)
	}
	if got := CauseOrDisplaced(b, trace.CauseWriteWrite); got != trace.CauseWriteWrite {
		t.Fatalf("displaced flag not consumed: second cause = %v", got)
	}
	p.gatePending.Add(-1)

	// Without a pending escalation the natural cause stands.
	if got := CauseOrDisplaced(b, trace.CauseStripeLockBusy); got != trace.CauseStripeLockBusy {
		t.Fatalf("cause without displacement = %v", got)
	}
	// Non-governor managers pass through.
	if got := CauseOrDisplaced(noneCM{}, trace.CauseSeqChanged); got != trace.CauseSeqChanged {
		t.Fatalf("non-governor pass-through = %v", got)
	}
}

// TestChaosWaitDrop: an armed cm-wait-drop site forces conflicts to abort
// (requester-loses) without touching the displaced flag, so the natural
// cause is kept.
func TestChaosWaitDrop(t *testing.T) {
	cfg := Config{Arena: mem.NewArena(64), Threads: 2, CM: "greedy", Chaos: "7:cm-wait-drop:1"}
	p := governorPool(t, cfg)
	var st0, st1 ThreadStats
	older := p.ForThread(0, &st0)
	younger := p.ForThread(1, &st1)
	older.OnStart()
	younger.OnStart()
	// Greedy would normally let the older transaction wait; the injector
	// drops the wait.
	if !older.ShouldAbort(younger) {
		t.Fatal("cm-wait-drop did not force the abort")
	}
	if got := CauseOrDisplaced(older, trace.CauseWriteWrite); got != trace.CauseWriteWrite {
		t.Fatalf("chaos drop changed the cause to %v", got)
	}
}

// TestEscalationDrainsPeers: an escalating block waits for the in-flight
// peer to finish its attempt, and newcomers park until the escalated block
// commits.
func TestEscalationDrainsPeers(t *testing.T) {
	cfg := Config{Arena: mem.NewArena(64), Threads: 2, CM: "none", StarveAfter: 1}
	p := governorPool(t, cfg)
	var st0, st1 ThreadStats
	a := p.ForThread(0, &st0)
	b := p.ForThread(1, &st1)

	b.OnStart() // peer is mid-attempt
	a.OnStart()
	escalated := make(chan struct{})
	go func() {
		a.OnAbort(1) // must block draining b's flag
		close(escalated)
	}()
	select {
	case <-escalated:
		t.Fatal("escalation completed while a peer was still in its attempt")
	case <-time.After(20 * time.Millisecond):
	}
	b.OnCommit() // peer drains
	select {
	case <-escalated:
	case <-time.After(2 * time.Second):
		t.Fatal("escalation still blocked after the peer drained")
	}
	// Newcomer parks until the escalated block commits.
	entered := make(chan struct{})
	go func() {
		b.OnStart()
		close(entered)
	}()
	select {
	case <-entered:
		t.Fatal("newcomer entered during an escalated block")
	case <-time.After(20 * time.Millisecond):
	}
	a.OnCommit()
	select {
	case <-entered:
	case <-time.After(2 * time.Second):
		t.Fatal("newcomer still parked after the escalated commit")
	}
	b.OnCommit()
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

// TestWatchUnparksGate: a worker parked at the governor's gate unwinds with
// HaltSignal when the watch halts, instead of spinning forever.
func TestWatchUnparksGate(t *testing.T) {
	w := NewWatch(2)
	cfg := Config{Arena: mem.NewArena(64), Threads: 2, CM: "none", Watch: w}
	p := governorPool(t, cfg)
	var st ThreadStats
	g := p.ForThread(0, &st)

	p.gatePending.Add(1) // a never-finishing escalation keeps the gate shut
	unwound := make(chan HaltSignal, 1)
	go func() {
		defer func() {
			if hs, ok := recover().(HaltSignal); ok {
				unwound <- hs
			}
		}()
		g.OnStart() // parks at the gate
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
	p.gatePending.Add(-1)
}
