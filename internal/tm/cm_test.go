package tm

import (
	"testing"

	"github.com/stamp-go/stamp/internal/mem"
	"github.com/stamp-go/stamp/internal/thread"
)

// unwrap strips the liveness governor off a ForThread manager so tests can
// reach the wrapped policy's internals.
func unwrap(cm ContentionManager) ContentionManager {
	return cm.(*governor).inner
}

func cmPool(t *testing.T, name string) *CMPool {
	t.Helper()
	cfg := Config{Arena: mem.NewArena(64), Threads: 4, CM: name}.Defaults()
	p, err := NewCMPool(cfg, DefaultCM)
	if err != nil {
		t.Fatalf("NewCMPool(%s): %v", name, err)
	}
	return p
}

func TestCMRegistry(t *testing.T) {
	names := CMNames()
	want := []string{"expo", "greedy", "karma", "none", "randlin"}
	if len(names) != len(want) {
		t.Fatalf("CMNames() = %v", names)
	}
	for i, n := range want {
		if names[i] != n {
			t.Fatalf("CMNames()[%d] = %q, want %q (sorted)", i, names[i], n)
		}
		if CMDescription(n) == "" {
			t.Fatalf("policy %q has no description", n)
		}
	}
	if CMDescription("nope") != "" {
		t.Fatal("unknown policy has a description")
	}
}

func TestNewCMPoolUnknown(t *testing.T) {
	cfg := Config{Arena: mem.NewArena(64), Threads: 1, CM: "nope"}.Defaults()
	if _, err := NewCMPool(cfg, DefaultCM); err == nil {
		t.Fatal("unknown CM accepted")
	}
}

func TestNewCMPoolFallback(t *testing.T) {
	cfg := Config{Arena: mem.NewArena(64), Threads: 1}.Defaults()
	p, err := NewCMPool(cfg, NoCM)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "none" {
		t.Fatalf("empty CM resolved to %q, want fallback %q", p.Name(), "none")
	}
	var st ThreadStats
	if got := p.ForThread(0, &st).Name(); got != "none" {
		t.Fatalf("manager name = %q", got)
	}
}

// TestRandlinDelayGrowth: no delay up to the threshold, then a delay drawn
// from a linearly growing budget.
func TestRandlinDelayGrowth(t *testing.T) {
	var st ThreadStats
	c := unwrap(cmPool(t, "randlin").ForThread(0, &st)).(*randlinCM)
	for aborts := 1; aborts <= backoffAborts; aborts++ {
		if d := c.delayFor(aborts); d != 0 {
			t.Fatalf("delay before threshold: %d at %d aborts", d, aborts)
		}
	}
	for k := 1; k <= 20; k++ {
		d := c.delayFor(backoffAborts + k)
		if d < 1 || d > k*backoffUnit {
			t.Fatalf("randlin delay at +%d aborts = %d, want [1, %d]", k, d, k*backoffUnit)
		}
	}
}

// TestExpoDelayGrowth: the budget doubles per abort past the threshold and
// is capped at 2^expoCap steps.
func TestExpoDelayGrowth(t *testing.T) {
	var st ThreadStats
	c := unwrap(cmPool(t, "expo").ForThread(0, &st)).(*expoCM)
	if d := c.delayFor(backoffAborts); d != 0 {
		t.Fatalf("delay at threshold: %d", d)
	}
	for k := 1; k <= expoCap+5; k++ {
		exp := k
		if exp > expoCap {
			exp = expoCap
		}
		d := c.delayFor(backoffAborts + k)
		if d < 1 || d > (1<<uint(exp))*expoUnit {
			t.Fatalf("expo delay at +%d aborts = %d, want [1, %d]", k, d, (1<<uint(exp))*expoUnit)
		}
	}
}

// TestGreedyArbitration: older (earlier OnStart) wins; the younger aborts;
// a nil or idle enemy always aborts the requester / never beats a runner.
func TestGreedyArbitration(t *testing.T) {
	p := cmPool(t, "greedy")
	var st0, st1 ThreadStats
	older := p.ForThread(0, &st0)
	younger := p.ForThread(1, &st1)
	older.OnStart()
	younger.OnStart()
	if !younger.ShouldAbort(older) {
		t.Fatal("younger did not yield to older")
	}
	if older.ShouldAbort(younger) {
		t.Fatal("older yielded to younger")
	}
	if !older.ShouldAbort(nil) {
		t.Fatal("nil enemy must abort the requester")
	}
	// Commit resets the timestamp: a committed manager has no priority.
	older.OnCommit()
	if older.Priority() != 0 {
		t.Fatalf("priority after commit = %d", older.Priority())
	}
	if younger.ShouldAbort(older) {
		t.Fatal("running block yielded to an idle manager")
	}
}

// TestKarmaPriority: priority accrues per aborted attempt and resets at
// commit; ties lose (requester aborts).
func TestKarmaPriority(t *testing.T) {
	p := cmPool(t, "karma")
	var st0, st1 ThreadStats
	rich := p.ForThread(0, &st0)
	poor := p.ForThread(1, &st1)
	rich.OnStart()
	poor.OnStart()
	if !rich.ShouldAbort(poor) || !poor.ShouldAbort(rich) {
		t.Fatal("equal karma must behave requester-loses on both sides")
	}
	for i := 1; i <= 3; i++ {
		rich.OnAbort(i)
	}
	poor.OnAbort(1)
	if rich.Priority() != 3 || poor.Priority() != 1 {
		t.Fatalf("karma = %d/%d, want 3/1", rich.Priority(), poor.Priority())
	}
	if !poor.ShouldAbort(rich) {
		t.Fatal("low-karma requester did not yield")
	}
	if rich.ShouldAbort(poor) {
		t.Fatal("high-karma requester yielded")
	}
	rich.OnCommit()
	if rich.Priority() != 0 {
		t.Fatalf("karma after commit = %d", rich.Priority())
	}
}

// TestWaitOrAbortBounds: requester-loses policies abort immediately; a
// waiting policy pauses its waiter once per probe and is cut off after
// exactly maxConflictProbes of them.
func TestWaitOrAbortBounds(t *testing.T) {
	if !WaitOrAbort(nil, nil, &thread.Waiter{}) {
		t.Fatal("nil self must abort")
	}
	var st ThreadStats
	rl := cmPool(t, "randlin").ForThread(0, &st)
	if !WaitOrAbort(rl, nil, &thread.Waiter{}) {
		t.Fatal("randlin must abort at any conflict")
	}
	p := cmPool(t, "greedy")
	var st0, st1 ThreadStats
	older := p.ForThread(0, &st0)
	younger := p.ForThread(1, &st1)
	older.OnStart()
	younger.OnStart()
	w := thread.Waiter{Parties: 2}
	for probe := 0; probe < maxConflictProbes; probe++ {
		if WaitOrAbort(older, younger, &w) {
			t.Fatalf("older greedy transaction aborted at probe %d, want it to wait", probe)
		}
	}
	if w.Polls() != maxConflictProbes {
		t.Fatalf("waiter paused %d times over %d probes", w.Polls(), maxConflictProbes)
	}
	if !WaitOrAbort(older, younger, &w) {
		t.Fatal("probe bound did not cut the wait off")
	}
}

// TestCMWaitStats: applied delays are counted and timed in ThreadStats.
func TestCMWaitStats(t *testing.T) {
	var st ThreadStats
	c := cmPool(t, "randlin").ForThread(0, &st)
	c.OnStart()
	c.OnAbort(10) // well past the threshold: a delay must be applied
	c.OnCommit()
	if st.CMWaits != 1 {
		t.Fatalf("CMWaits = %d, want 1", st.CMWaits)
	}
	if st.CMWaitNs <= 0 {
		t.Fatalf("CMWaitNs = %d, want > 0", st.CMWaitNs)
	}
}

// TestCMStatsMerge: the new counters aggregate across thread records.
func TestCMStatsMerge(t *testing.T) {
	a := &ThreadStats{CMWaits: 2, CMWaitNs: 100, Escalations: 1}
	b := &ThreadStats{CMWaits: 3, CMWaitNs: 50}
	s := Aggregate([]*ThreadStats{a, b})
	if s.Total.CMWaits != 5 || s.Total.CMWaitNs != 150 || s.Total.Escalations != 1 {
		t.Fatalf("merged CM stats = %+v", s.Total)
	}
}
