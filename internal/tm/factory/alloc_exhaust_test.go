package factory

import (
	"errors"
	"testing"

	"github.com/stamp-go/stamp/internal/mem"
	"github.com/stamp-go/stamp/internal/thread"
	"github.com/stamp-go/stamp/internal/tm"
)

// TestChaosStormAllocExhaust arms the alloc-exhaust failpoint at
// probability 1 on every concurrent runtime: every tx.Alloc spuriously
// reports the arena exhausted, so no allocating transaction can commit the
// ordinary way and termination proves the starvation-escalation guarantee
// covers the allocation path (the injector is suppressed for irrevocable
// attempts, whose allocations then succeed for real). The injected aborts
// must carry the alloc-exhausted cause and the run must never unwind with
// tm.AllocFailure — injection is a retryable abort, not real exhaustion.
func TestChaosStormAllocExhaust(t *testing.T) {
	const threads = 4
	const perT = 10
	for _, name := range concurrentNames() {
		t.Run(name, func(t *testing.T) {
			arena := mem.NewArena(1 << 14)
			hot := arena.Alloc(1)
			sys, err := New(name, tm.Config{
				Arena:       arena,
				Threads:     threads,
				Chaos:       "7:alloc-exhaust:1",
				StarveAfter: 4,
			})
			if err != nil {
				t.Fatal(err)
			}
			team := thread.NewTeam(threads)
			team.Run(func(tid int) {
				th := sys.Thread(tid)
				for j := 0; j < perT; j++ {
					th.Atomic(func(tx tm.Tx) {
						n := tx.Alloc(2)
						tx.Store(n, 1)
						tx.Store(hot, tx.Load(hot)+1)
					})
				}
			})
			st := sys.Stats()
			if got := (mem.Direct{A: arena}).Load(hot); got != threads*perT {
				t.Fatalf("hot counter = %d, want %d", got, threads*perT)
			}
			if st.Total.Escalations == 0 {
				t.Error("storm terminated with zero escalations — allocating commits leaked past the armed failpoint")
			}
			if st.AbortCauses()[tm.CauseAllocExhausted] == 0 {
				t.Error("no abort carries the alloc-exhausted cause under a probability-1 alloc-exhaust storm")
			}
			assertCauseAccounting(t, name, st)
		})
	}
}

// TestAllocExhaustedTerminalTyped pins the real-exhaustion contract on
// every registered runtime, the sequential baseline included: when the
// arena genuinely cannot hold a transaction's allocation, the attempt
// aborts once with the alloc-exhausted cause (accounted in the closed
// taxonomy) and the block unwinds with tm.AllocFailure wrapping
// mem.ErrArenaFull — never a raw allocator panic, and never an infinite
// retry loop.
func TestAllocExhaustedTerminalTyped(t *testing.T) {
	for _, name := range Names() {
		threads := 2
		if name == "seq" {
			threads = 1
		}
		t.Run(name, func(t *testing.T) {
			arena := mem.NewArena(64) // smaller than one reservation chunk
			sys, err := New(name, tm.Config{Arena: arena, Threads: threads})
			if err != nil {
				t.Fatal(err)
			}
			var failure any
			func() {
				defer func() { failure = recover() }()
				team := thread.NewTeam(threads)
				team.Run(func(tid int) {
					th := sys.Thread(tid)
					for j := 0; j < 1<<10; j++ {
						th.Atomic(func(tx tm.Tx) {
							tx.Store(tx.Alloc(32), 1)
						})
					}
				})
			}()
			af, ok := failure.(tm.AllocFailure)
			if !ok {
				t.Fatalf("exhaustion unwound with %T (%v), want tm.AllocFailure", failure, failure)
			}
			if !errors.Is(af.Err, mem.ErrArenaFull) {
				t.Fatalf("AllocFailure.Err = %v, want errors.Is ErrArenaFull", af.Err)
			}
			st := sys.Stats()
			if st.AbortCauses()[tm.CauseAllocExhausted] == 0 {
				t.Error("terminal exhaustion recorded no alloc-exhausted abort")
			}
			assertCauseAccounting(t, name, st)
		})
	}
}

// TestHTMLazySerialModeEndsWithItsBlock pins that htm-lazy's overflow
// (serial) mode is per-block state on every exit path: block A overflows the
// speculative buffer, retries serially, and then unwinds terminally through
// arena exhaustion; block B on the same thread must start speculative again
// — observable as B's own htm-capacity abort — instead of inheriting A's
// serial mode and taking the system-wide lock for an overflow it never had.
func TestHTMLazySerialModeEndsWithItsBlock(t *testing.T) {
	arena := mem.NewArena(1 << 15)
	lines := sameSetLines(arena, 8) // twice the set's 4 ways
	sys, err := New("htm-lazy", tm.Config{Arena: arena, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	th := sys.Thread(0)
	overCapacity := func(tx tm.Tx) {
		for _, a := range lines {
			tx.Load(a)
		}
	}
	func() {
		defer func() {
			if _, ok := recover().(tm.AllocFailure); !ok {
				t.Fatal("block A did not unwind with tm.AllocFailure")
			}
		}()
		th.Atomic(func(tx tm.Tx) {
			overCapacity(tx)
			tx.Alloc(arena.Cap()) // cannot fit: terminal
		})
	}()
	capacityAborts := func() uint64 { return sys.Stats().AbortCauses()[tm.CauseHTMCapacity] }
	if got := capacityAborts(); got != 1 {
		t.Fatalf("block A recorded %d htm-capacity aborts, want 1", got)
	}
	th.Atomic(overCapacity)
	if got := capacityAborts(); got != 2 {
		t.Fatalf("block B recorded %d htm-capacity aborts, want 1: it began in block A's serial mode", got-1)
	}
	assertCauseAccounting(t, "htm-lazy", sys.Stats())
}

// TestSeqIgnoresAllocExhaustChaos pins the documented asymmetry: seq has no
// chaos injector (it has no escalation layer, so a probability-1 arm could
// never terminate), so an armed alloc-exhaust site must not fire there and
// the workload completes without aborts.
func TestSeqIgnoresAllocExhaustChaos(t *testing.T) {
	arena := mem.NewArena(1 << 12)
	hot := arena.Alloc(1)
	sys, err := New("seq", tm.Config{Arena: arena, Threads: 1, Chaos: "7:alloc-exhaust:1"})
	if err != nil {
		t.Fatal(err)
	}
	const n = 20
	team := thread.NewTeam(1)
	team.Run(func(tid int) {
		th := sys.Thread(tid)
		for j := 0; j < n; j++ {
			th.Atomic(func(tx tm.Tx) {
				tx.Store(tx.Alloc(2), 1)
				tx.Store(hot, tx.Load(hot)+1)
			})
		}
	})
	if got := (mem.Direct{A: arena}).Load(hot); got != n {
		t.Fatalf("hot counter = %d, want %d", got, n)
	}
	if aborts := sys.Stats().Total.Aborts; aborts != 0 {
		t.Fatalf("seq recorded %d aborts under an armed alloc-exhaust site (no injector expected)", aborts)
	}
}

// TestTransactionalFreeRecyclesAcrossRuntimes drives balanced alloc/free
// churn far past the arena's raw capacity on every concurrent runtime: with
// the reserver free lists recycling committed frees, the loop completes
// inside a fixed arena where the seed's leak-everything allocator would
// exhaust it many times over.
func TestTransactionalFreeRecyclesAcrossRuntimes(t *testing.T) {
	const threads = 2
	const perT = 1 << 11 // 2 threads × 2^11 × 6 words ≈ 24k words of churn
	for _, name := range concurrentNames() {
		t.Run(name, func(t *testing.T) {
			arena := mem.NewArena(1 << 13) // 8k words: must be recycled to fit
			sys, err := New(name, tm.Config{Arena: arena, Threads: threads})
			if err != nil {
				t.Fatal(err)
			}
			team := thread.NewTeam(threads)
			team.Run(func(tid int) {
				th := sys.Thread(tid)
				for j := 0; j < perT; j++ {
					th.Atomic(func(tx tm.Tx) {
						n := tx.Alloc(6)
						tx.Store(n, uint64(j))
						tx.Free(n, 6)
					})
				}
			})
			if used, capW := arena.Used(), arena.Cap(); used > capW {
				t.Fatalf("high-water %d exceeds cap %d", used, capW)
			}
		})
	}
}
