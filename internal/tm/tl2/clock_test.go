package tl2

import (
	"sync"
	"testing"

	"github.com/stamp-go/stamp/internal/mem"
	"github.com/stamp-go/stamp/internal/rng"
	"github.com/stamp-go/stamp/internal/tm"
)

// newTL2 builds the eager or the lazy TL2 runtime for the clock tests.
func newTL2(t *testing.T, eager bool, cfg tm.Config) tm.System {
	t.Helper()
	var sys tm.System
	var err error
	if eager {
		sys, err = NewEager(cfg)
	} else {
		sys, err = NewLazy(cfg)
	}
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestGV1Semantics: every commit fetch-adds; validation is skipped exactly
// when no commit intervened since begin.
func TestGV1Semantics(t *testing.T) {
	var c Clock
	rv := c.Begin()
	wv, validate := c.CommitTick(rv)
	if wv != rv+1 || validate {
		t.Fatalf("uncontended tick: wv=%d validate=%v (rv=%d)", wv, validate, rv)
	}
	// A commit between begin and tick forces validation.
	rv = c.Begin()
	c.CommitTick(c.Begin()) // an intervening committer
	wv, validate = c.CommitTick(rv)
	if wv != rv+2 || !validate {
		t.Fatalf("contended tick: wv=%d validate=%v (rv=%d)", wv, validate, rv)
	}
	if c.Now() != wv {
		t.Fatalf("Now() = %d after tick to %d", c.Now(), wv)
	}
}

// clockCases are the subtests of the clock sweeps below: both TL2 runtimes
// on the one clock, GV1 in the TL2 paper's naming.
var clockCases = []struct {
	name  string
	eager bool
}{{"gv1/lazy", false}, {"gv1/eager", true}}

// TestClockSchemeOpacityForcedRace: a reader snapshots two words with a
// writer's commit forced into the middle of its read set — begin, read X,
// *then* let the writer commit {X, Y}, then read Y. The reader must never
// return X-old together with Y-new: it has to abort and re-run with a
// consistent snapshot. The orchestration is deterministic, so every
// iteration exercises exactly the clock-race window; a violation here is a
// stale read the clock let through.
func TestClockSchemeOpacityForcedRace(t *testing.T) {
	const iters = 200
	for _, tc := range clockCases {
		t.Run(tc.name, func(t *testing.T) {
			arena := mem.NewArena(1 << 12)
			x := arena.AllocLines(1)
			y := arena.AllocLines(1)
			sys := newTL2(t, tc.eager, tm.Config{Arena: arena, Threads: 2})
			for i := 0; i < iters; i++ {
				arena.Store(x, 0)
				arena.Store(y, 0)
				readX := make(chan struct{}) // reader has read X
				wrote := make(chan struct{}) // writer has committed
				var torn bool
				var wg sync.WaitGroup
				wg.Add(2)
				go func() {
					defer wg.Done()
					first := true
					sys.Thread(0).Atomic(func(tx tm.Tx) {
						vx := tx.Load(x)
						if first {
							first = false
							close(readX)
							<-wrote // the writer commits inside our read set
						}
						vy := tx.Load(y)
						if vx != vy {
							torn = true
						}
					})
				}()
				go func() {
					defer wg.Done()
					<-readX
					sys.Thread(1).Atomic(func(tx tm.Tx) {
						tx.Store(x, uint64(i)+1)
						tx.Store(y, uint64(i)+1)
					})
					close(wrote)
				}()
				wg.Wait()
				if torn {
					t.Fatalf("iteration %d: reader observed X and Y from different snapshots", i)
				}
			}
		})
	}
}

// TestClockSchemeInvariantStress runs the bank-transfer invariant on both
// TL2 runtimes at full concurrency (run with -race): no reader may see a
// torn total, and the final total must be conserved.
func TestClockSchemeInvariantStress(t *testing.T) {
	const (
		threads  = 8
		accounts = 16
		total    = 800
		perT     = 400
	)
	for _, tc := range clockCases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			arena := mem.NewArena(1 << 12)
			accs := make([]mem.Addr, accounts)
			for i := range accs {
				accs[i] = arena.AllocLines(1)
			}
			arena.Store(accs[0], total)
			sys := newTL2(t, tc.eager, tm.Config{Arena: arena, Threads: threads})
			var violations [threads]int64
			var wg sync.WaitGroup
			for tid := 0; tid < threads; tid++ {
				wg.Add(1)
				go func(tid int) {
					defer wg.Done()
					th := sys.Thread(tid)
					r := rng.New(uint64(tid)*131 + 7)
					for i := 0; i < perT; i++ {
						if i%4 == 0 {
							th.Atomic(func(tx tm.Tx) {
								var sum uint64
								for _, a := range accs {
									sum += tx.Load(a)
								}
								if sum != total {
									violations[tid]++
								}
							})
							continue
						}
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
					}
				}(tid)
			}
			wg.Wait()
			for tid, v := range violations {
				if v != 0 {
					t.Fatalf("thread %d observed %d torn snapshots", tid, v)
				}
			}
			var sum uint64
			for _, a := range accs {
				sum += arena.Load(a)
			}
			if sum != total {
				t.Fatalf("final total = %d, want %d", sum, total)
			}
		})
	}
}
