package factory

import (
	"testing"

	"github.com/stamp-go/stamp/internal/mem"
	"github.com/stamp-go/stamp/internal/rng"
	"github.com/stamp-go/stamp/internal/thread"
	"github.com/stamp-go/stamp/internal/tm"
)

// TestClockConformance sweeps every concurrent runtime through the condensed
// correctness suite (blind-increment atomicity, invariant-preserving
// transfers with reader snapshots, and transactional allocation). The TL2
// runtimes and stm-mv run it against their fetch-add commit clock (GV1 in
// the TL2 paper's naming, hence the subtest prefix); the other runtimes
// keep their own serial points, so a new runtime is screened automatically.
func TestClockConformance(t *testing.T) {
	const (
		threads  = 4
		perT     = 250
		accounts = 8
		total    = 400
	)
	for _, sysName := range concurrentNames() {
		t.Run("gv1/"+sysName, func(t *testing.T) {
			t.Parallel()
			arena := mem.NewArena(1 << 14)
			counter := arena.Alloc(1)
			accs := make([]mem.Addr, accounts)
			for i := range accs {
				accs[i] = arena.AllocLines(1)
			}
			arena.Store(accs[0], total)
			head := arena.Alloc(1)
			sys, err := New(sysName, tm.Config{Arena: arena, Threads: threads})
			if err != nil {
				t.Fatalf("New(%s): %v", sysName, err)
			}
			team := thread.NewTeam(threads)
			var violations [threads]int64
			team.Run(func(tid int) {
				th := sys.Thread(tid)
				r := rng.New(uint64(tid)*53 + 11)
				for i := 0; i < perT; i++ {
					switch i % 4 {
					case 0:
						th.Atomic(func(tx tm.Tx) {
							tx.Store(counter, tx.Load(counter)+1)
						})
					case 1:
						from, to := r.Intn(accounts), r.Intn(accounts)
						amount := uint64(r.Intn(4))
						th.Atomic(func(tx tm.Tx) {
							f := tx.Load(accs[from])
							if f < amount {
								return
							}
							tx.Store(accs[from], f-amount)
							tx.Store(accs[to], tx.Load(accs[to])+amount)
						})
					case 2:
						// Transactional allocation rides along so the
						// per-thread reservation path is swept too.
						th.Atomic(func(tx tm.Tx) {
							node := tx.Alloc(2)
							tx.Store(node, uint64(tid))
							tx.Store(node+1, tx.Load(head))
							tx.Store(head, uint64(node))
						})
					default:
						th.Atomic(func(tx tm.Tx) {
							var sum uint64
							for _, a := range accs {
								sum += tx.Load(a)
							}
							if sum != total {
								violations[tid]++
							}
						})
					}
				}
			})
			wantCounter := uint64(threads * ((perT + 3) / 4))
			if got := arena.Load(counter); got != wantCounter {
				t.Fatalf("counter = %d, want %d (lost updates)", got, wantCounter)
			}
			var sum uint64
			for _, a := range accs {
				sum += arena.Load(a)
			}
			if sum != total {
				t.Fatalf("account total = %d, want %d", sum, total)
			}
			for tid, v := range violations {
				if v != 0 {
					t.Fatalf("thread %d observed %d torn snapshots", tid, v)
				}
			}
			// The allocation list must hold every transactionally
			// allocated node exactly once.
			wantNodes := threads * (perT / 4)
			seen := 0
			for p := mem.Addr(arena.Load(head)); p != mem.Nil; p = mem.Addr(arena.Load(p + 1)) {
				seen++
				if seen > wantNodes {
					t.Fatal("allocation list longer than expected (overlapping allocations?)")
				}
			}
			if seen != wantNodes {
				t.Fatalf("allocation list has %d nodes, want %d", seen, wantNodes)
			}
		})
	}
}
