package factory

import (
	"testing"

	"github.com/stamp-go/stamp/internal/mem"
	"github.com/stamp-go/stamp/internal/thread"
	"github.com/stamp-go/stamp/internal/tm"
)

// assertCauseAccounting checks the abort-attribution invariants every
// runtime must satisfy on a completed run: the per-cause counters sum to
// the aggregate abort count with nothing left in the CauseUnknown bucket,
// and the per-block cause breakdown accounts for the same total.
func assertCauseAccounting(t *testing.T, name string, st tm.Stats) {
	t.Helper()
	causes := st.AbortCauses()
	var sum uint64
	for _, n := range causes {
		sum += n
	}
	if sum != st.Total.Aborts {
		t.Errorf("%s: per-cause counters sum to %d, want Aborts = %d (%v)",
			name, sum, st.Total.Aborts, causes)
	}
	if causes[tm.CauseUnknown] != 0 {
		t.Errorf("%s: %d aborts left unattributed (CauseUnknown)", name, causes[tm.CauseUnknown])
	}
	var blockSum uint64
	for _, row := range st.Blocks() {
		for _, n := range row.Causes {
			blockSum += n
		}
	}
	if blockSum != st.Total.Aborts {
		t.Errorf("%s: per-block cause counters sum to %d, want Aborts = %d",
			name, blockSum, st.Total.Aborts)
	}
}

// TestCauseConformanceRestart drives every registered runtime — including
// the sequential baseline — through transactions that explicitly Restart on
// their first attempt, the one abort every runtime can produce
// deterministically, and asserts the full attribution invariant plus the
// explicit-retry floor.
func TestCauseConformanceRestart(t *testing.T) {
	const perT = 20
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			threads := 4
			if name == "seq" {
				threads = 1
			}
			arena := mem.NewArena(1 << 14)
			cells := make([]mem.Addr, threads)
			for i := range cells {
				cells[i] = arena.AllocLines(1)
			}
			sys := newSys(t, name, arena, threads)
			team := thread.NewTeam(threads)
			team.Run(func(tid int) {
				th := sys.Thread(tid)
				a := cells[tid]
				for j := 0; j < perT; j++ {
					first := true
					th.Atomic(func(tx tm.Tx) {
						if first {
							first = false
							tx.Restart()
						}
						tx.Store(a, tx.Load(a)+1)
					})
				}
			})
			st := sys.Stats()
			want := uint64(threads * perT)
			if st.Total.Commits != want {
				t.Fatalf("%s: commits = %d, want %d", name, st.Total.Commits, want)
			}
			if st.Total.Aborts < want {
				t.Errorf("%s: aborts = %d, want >= %d (one Restart per block)",
					name, st.Total.Aborts, want)
			}
			if got := st.AbortCauses()[tm.CauseExplicitRetry]; got < want {
				t.Errorf("%s: explicit-retry aborts = %d, want >= %d", name, got, want)
			}
			assertCauseAccounting(t, name, st)
		})
	}
}

// TestCauseConformanceContended hammers one hot word from every worker on
// every concurrent runtime: whatever aborts the protocol produces under
// real contention, each one must carry a non-unknown taxonomy cause.
func TestCauseConformanceContended(t *testing.T) {
	const threads = 8
	const perT = 400
	for _, name := range concurrentNames() {
		t.Run(name, func(t *testing.T) {
			arena := mem.NewArena(1 << 12)
			hot := arena.Alloc(1)
			sys := newSys(t, name, arena, threads)
			team := thread.NewTeam(threads)
			team.Run(func(tid int) {
				th := sys.Thread(tid)
				for j := 0; j < perT; j++ {
					th.Atomic(func(tx tm.Tx) {
						tx.Store(hot, tx.Load(hot)+1)
					})
				}
			})
			st := sys.Stats()
			if got := (mem.Direct{A: arena}).Load(hot); got != threads*perT {
				t.Fatalf("%s: hot counter = %d, want %d", name, got, threads*perT)
			}
			assertCauseAccounting(t, name, st)
		})
	}
}

// TestCauseHTMCapacityAttribution overflows the lazy HTM's speculative
// buffer deterministically (16 written lines in one 4-way set) and checks
// the aborts land in the htm-capacity bucket with the tripping line in the
// conflict heatmap.
func TestCauseHTMCapacityAttribution(t *testing.T) {
	arena := mem.NewArena(1 << 16)
	addrs := sameSetLines(arena, 16)
	sys, err := New("htm-lazy", tm.Config{Arena: arena, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	th := sys.Thread(0)
	for k := 0; k < 3; k++ {
		th.Atomic(func(tx tm.Tx) {
			for _, a := range addrs {
				tx.Store(a, tx.Load(a)+1)
			}
		})
	}
	st := sys.Stats()
	if st.Total.Aborts == 0 {
		t.Fatal("htm-lazy: 16 lines in one 4-way set produced no aborts")
	}
	if got := st.AbortCauses()[tm.CauseHTMCapacity]; got == 0 {
		t.Errorf("htm-lazy: no aborts attributed to htm-capacity (%v)", st.AbortCauses())
	}
	assertCauseAccounting(t, "htm-lazy", st)
	rows := st.TopConflicts()
	if len(rows) == 0 {
		t.Fatal("htm-lazy: capacity aborts recorded no conflict-heatmap rows")
	}
	if rows[0].Causes[tm.CauseHTMCapacity] == 0 {
		t.Errorf("htm-lazy: hottest heatmap row has no htm-capacity conflicts: %+v", rows[0])
	}
}

// TestTraceEventsSweep runs every concurrent runtime with full tracing and
// checks the sampled event stream is coherent: time-sorted, every block
// commit paired with a begin, and every abort event carrying a non-unknown
// cause.
func TestTraceEventsSweep(t *testing.T) {
	const threads = 4
	const perT = 50
	for _, name := range concurrentNames() {
		t.Run(name, func(t *testing.T) {
			arena := mem.NewArena(1 << 12)
			hot := arena.Alloc(1)
			sys, err := New(name, tm.Config{Arena: arena, Threads: threads, Trace: 1})
			if err != nil {
				t.Fatal(err)
			}
			team := thread.NewTeam(threads)
			team.Run(func(tid int) {
				th := sys.Thread(tid)
				for j := 0; j < perT; j++ {
					th.Atomic(func(tx tm.Tx) {
						tx.Store(hot, tx.Load(hot)+1)
					})
				}
			})
			evs := tm.TraceEvents(sys)
			if len(evs) == 0 {
				t.Fatalf("%s: Trace=1 produced no events", name)
			}
			var begins, commits uint64
			for i, ev := range evs {
				if i > 0 && ev.TimeNs < evs[i-1].TimeNs {
					t.Fatalf("%s: events not time-sorted at %d", name, i)
				}
				switch ev.Kind {
				case tm.EvBegin:
					begins++
				case tm.EvCommit:
					commits++
				case tm.EvAbort:
					if ev.Cause == tm.CauseUnknown {
						t.Errorf("%s: abort event with unknown cause: %+v", name, ev)
					}
				}
			}
			want := uint64(threads * perT)
			if commits != want {
				t.Errorf("%s: %d commit events, want %d", name, commits, want)
			}
			if begins != want {
				t.Errorf("%s: %d begin events, want %d", name, begins, want)
			}
		})
	}
}
