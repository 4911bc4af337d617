// Ablation benchmarks for the design choices DESIGN.md calls out: early
// release, contention-management backoff, speculative-buffer associativity,
// and conflict-detection granularity. Each reports the metric the paper
// argues about (read-set size, retries, overflow serializations) alongside
// wall time.
package stamp_test

import (
	"fmt"
	"testing"

	"github.com/stamp-go/stamp"
	"github.com/stamp-go/stamp/internal/apps/labyrinth"
	"github.com/stamp-go/stamp/internal/apps/vacation"
	"github.com/stamp-go/stamp/internal/mem"
	"github.com/stamp-go/stamp/internal/thread"
	"github.com/stamp-go/stamp/internal/tm"
	"github.com/stamp-go/stamp/internal/tm/factory"
)

// BenchmarkAblationEarlyRelease: labyrinth on the lazy HTM with early
// release enabled vs disabled. Disabled, every privatization read stays in
// the speculative read set, so transactions overflow and serialize — the
// exact mechanism Section III.B.5 describes.
func BenchmarkAblationEarlyRelease(b *testing.B) {
	for _, enabled := range []bool{true, false} {
		b.Run(fmt.Sprintf("earlyRelease=%v", enabled), func(b *testing.B) {
			app := labyrinth.New(labyrinth.Config{X: 24, Y: 24, Z: 3, Paths: 24, Seed: 3})
			var readP90 int
			var aborts uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				arena := mem.NewArena(app.ArenaWords())
				app.Setup(arena)
				sys, err := factory.New("htm-lazy", tm.Config{
					Arena: arena, Threads: 4, EnableEarlyRelease: enabled,
				})
				if err != nil {
					b.Fatal(err)
				}
				app.Run(sys, thread.NewTeam(4))
				if err := app.Verify(arena); err != nil {
					b.Fatal(err)
				}
				st := sys.Stats()
				readP90 = st.ReadSetP90()
				aborts += st.Total.Aborts
			}
			b.ReportMetric(float64(readP90), "readset-p90-lines")
			b.ReportMetric(float64(aborts)/float64(b.N), "aborts/run")
		})
	}
}

// BenchmarkAblationBackoff: a contended counter on the lazy STM with and
// without randomized linear backoff (the paper's contention manager kicks
// in after 3 aborts; BackoffAfter beyond any abort count disables it).
func BenchmarkAblationBackoff(b *testing.B) {
	for _, backoff := range []bool{true, false} {
		b.Run(fmt.Sprintf("backoff=%v", backoff), func(b *testing.B) {
			after := 3
			if !backoff {
				after = 1 << 30
			}
			var aborts, commits uint64
			for i := 0; i < b.N; i++ {
				arena := stamp.NewArena(1 << 10)
				hot := arena.Alloc(1)
				sys, err := factory.New("stm-lazy", tm.Config{
					Arena: arena, Threads: 8, BackoffAfter: after,
				})
				if err != nil {
					b.Fatal(err)
				}
				team := thread.NewTeam(8)
				team.Run(func(tid int) {
					th := sys.Thread(tid)
					for j := 0; j < 2000; j++ {
						th.Atomic(func(tx tm.Tx) {
							tx.Store(hot, tx.Load(hot)+1)
						})
					}
				})
				st := sys.Stats()
				aborts += st.Total.Aborts
				commits += st.Total.Commits
			}
			b.ReportMetric(float64(aborts)/float64(commits), "retries/tx")
		})
	}
}

// BenchmarkAblationContentionManager sweeps every registered contention-
// management policy over the same contended workload — a hot counter plus
// scattered transfers on the lazy STM at 8 threads — reporting retries/tx,
// CM delays, and serialize-fallback escalations per policy. This is the
// policy-curve ablation the Synchrobench comparison argues for: protocol
// fixed, contention manager varied.
func BenchmarkAblationContentionManager(b *testing.B) {
	for _, cm := range stamp.CMNames() {
		b.Run("cm="+cm, func(b *testing.B) {
			var aborts, commits, waits, serialized uint64
			for i := 0; i < b.N; i++ {
				arena := stamp.NewArena(1 << 12)
				hot := arena.Alloc(1)
				cells := make([]stamp.Addr, 32)
				for j := range cells {
					cells[j] = arena.AllocLines(1)
				}
				sys, err := factory.New("stm-lazy", tm.Config{
					Arena: arena, Threads: 8, CM: cm,
				})
				if err != nil {
					b.Fatal(err)
				}
				team := thread.NewTeam(8)
				team.Run(func(tid int) {
					th := sys.Thread(tid)
					for j := 0; j < 1500; j++ {
						if j%4 == 0 {
							a := cells[(tid*7+j)%len(cells)]
							c := cells[(tid+j*5)%len(cells)]
							th.Atomic(func(tx tm.Tx) {
								tx.Store(a, tx.Load(a)+1)
								tx.Store(c, tx.Load(c)+1)
							})
							continue
						}
						th.Atomic(func(tx tm.Tx) {
							tx.Store(hot, tx.Load(hot)+1)
						})
					}
				})
				st := sys.Stats()
				aborts += st.Total.Aborts
				commits += st.Total.Commits
				waits += st.Total.CMWaits
				serialized += st.Total.CMSerialized
			}
			b.ReportMetric(float64(aborts)/float64(max(commits, 1)), "retries/tx")
			b.ReportMetric(float64(waits)/float64(b.N), "cm-waits/run")
			b.ReportMetric(float64(serialized)/float64(b.N), "serialized/run")
		})
	}
}

// BenchmarkAblationAssociativity: bayes-sized read sets on the lazy HTM
// with the Table V 4-way buffer vs a fully associative one. The 4-way
// buffer overflows on footprints far below its total capacity, reproducing
// why the paper's bayes serializes on HTM.
func BenchmarkAblationAssociativity(b *testing.B) {
	for _, assoc := range []int{4, 0} {
		name := "4-way"
		if assoc == 0 {
			name = "full"
		}
		b.Run(name, func(b *testing.B) {
			var aborts uint64
			for i := 0; i < b.N; i++ {
				arena := stamp.NewArena(1 << 22)
				// ~700 scattered lines per transaction: below the 2048-line
				// total, above what 4-way sets absorb reliably.
				addrs := make([]stamp.Addr, 700)
				for j := range addrs {
					arena.Alloc(int(j%13) + 1) // scatter
					addrs[j] = arena.AllocLines(1)
				}
				sys, err := factory.New("htm-lazy", tm.Config{
					Arena: arena, Threads: 1,
					CapacityLines: 2048, CapacityAssoc: assoc,
				})
				if err != nil {
					b.Fatal(err)
				}
				th := sys.Thread(0)
				for k := 0; k < 10; k++ {
					th.Atomic(func(tx tm.Tx) {
						for _, a := range addrs {
							tx.Store(a, tx.Load(a)+1)
						}
					})
				}
				aborts += sys.Stats().Total.Aborts
			}
			b.ReportMetric(float64(aborts)/float64(b.N), "overflow-serializations/run")
		})
	}
}

// BenchmarkAblationGranularity: vacation on word-granularity (stm-lazy)
// vs line-granularity (hybrid-lazy) conflict detection at equal versioning
// policy. Line granularity manufactures false conflicts on the tree nodes
// (the bayes/vacation observation of Section V).
func BenchmarkAblationGranularity(b *testing.B) {
	for _, sysName := range []string{"stm-lazy", "hybrid-lazy"} {
		b.Run(sysName, func(b *testing.B) {
			app := vacation.New(vacation.Config{
				QueriesPerTx: 4, QueryRange: 60, PercentUser: 90,
				Records: 1024, Transactions: 4096, Seed: 4,
			})
			var aborts, commits uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				arena := mem.NewArena(app.ArenaWords())
				app.Setup(arena)
				sys, err := factory.New(sysName, tm.Config{Arena: arena, Threads: 8})
				if err != nil {
					b.Fatal(err)
				}
				app.Run(sys, thread.NewTeam(8))
				if err := app.Verify(arena); err != nil {
					b.Fatal(err)
				}
				st := sys.Stats()
				aborts += st.Total.Aborts
				commits += st.Total.Commits
			}
			b.ReportMetric(float64(aborts)/float64(commits), "retries/tx")
		})
	}
}

// BenchmarkAblationSTMProtocol: the same read-dominated vacation workload
// across the STM concurrency-control protocols — TL2 lazy/eager
// (ownership-record table, per-read version checks) vs NOrec (single
// sequence lock, value-based validation). This is the lock-table-pressure
// vs revalidation-cost trade the NOrec paper argues, measured as wall time
// and retries/tx.
func BenchmarkAblationSTMProtocol(b *testing.B) {
	for _, sysName := range []string{"stm-lazy", "stm-eager", "stm-norec"} {
		b.Run(sysName, func(b *testing.B) {
			app := vacation.New(vacation.Config{
				QueriesPerTx: 4, QueryRange: 60, PercentUser: 90,
				Records: 1024, Transactions: 4096, Seed: 11,
			})
			var aborts, commits uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				arena := mem.NewArena(app.ArenaWords())
				app.Setup(arena)
				sys, err := factory.New(sysName, tm.Config{Arena: arena, Threads: 4})
				if err != nil {
					b.Fatal(err)
				}
				app.Run(sys, thread.NewTeam(4))
				if err := app.Verify(arena); err != nil {
					b.Fatal(err)
				}
				st := sys.Stats()
				aborts += st.Total.Aborts
				commits += st.Total.Commits
			}
			b.ReportMetric(float64(aborts)/float64(max(commits, 1)), "retries/tx")
		})
	}
}

// BenchmarkAblationClockScheme sweeps the TL2 commit-clock schemes (gv1
// fetch-add, gv4 pass-on-failure CAS, gv5 no-tick) over a clock-contended
// workload: tiny write transactions on disjoint per-thread cells at 8
// threads on stm-lazy, so the global version clock is the only shared
// write the protocol performs per commit. clock-advances/run counts the
// actual clock writes (read off the scheme before and after the run):
// gv1 writes once per writer commit, gv4 collapses racing committers onto
// one write, and gv5 only writes on the aborts its conservatism causes
// (reported as retries/tx). Caveat for reading ns/op: on a host with
// fewer cores than threads the clock line is never actually contended, so
// the wall-time separation shows up only on parallel hardware — the
// clock-advance counts are the protocol-level effect that translates to
// cache-line traffic there.
func BenchmarkAblationClockScheme(b *testing.B) {
	const (
		threads  = 8
		perT     = 1500
		cellsPer = 16
	)
	for _, clock := range stamp.ClockNames() {
		b.Run("clock="+clock, func(b *testing.B) {
			var advances, aborts, commits uint64
			for i := 0; i < b.N; i++ {
				b.StopTimer() // arena/system construction stays out of ns/op
				arena := stamp.NewArena(1 << 14)
				cells := make([]stamp.Addr, threads*cellsPer)
				for j := range cells {
					cells[j] = arena.AllocLines(1)
				}
				sys, err := factory.New("stm-lazy", tm.Config{
					Arena: arena, Threads: threads, Clock: clock,
				})
				if err != nil {
					b.Fatal(err)
				}
				cn := sys.(interface{ ClockNow() uint64 })
				before := cn.ClockNow()
				b.StartTimer()
				team := thread.NewTeam(threads)
				team.Run(func(tid int) {
					th := sys.Thread(tid)
					mine := cells[tid*cellsPer : (tid+1)*cellsPer]
					for j := 0; j < perT; j++ {
						th.Atomic(func(tx tm.Tx) {
							a := mine[j%cellsPer]
							tx.Store(a, tx.Load(a)+1)
						})
					}
				})
				b.StopTimer()
				advances += cn.ClockNow() - before
				st := sys.Stats()
				aborts += st.Total.Aborts
				commits += st.Total.Commits
				b.StartTimer()
			}
			b.ReportMetric(float64(advances)/float64(b.N), "clock-advances/run")
			b.ReportMetric(float64(aborts)/float64(max(commits, 1)), "retries/tx")
			b.ReportMetric(float64(commits)/float64(b.N), "tx/run")
		})
	}
}

// BenchmarkAblationAllocChunk is the allocation-path contention
// microbench: 8 threads running allocation-heavy transactions (vacation/
// genome-shaped: allocate a node, link it into a per-thread list) with
// per-thread arena reservation disabled (chunk=direct — every tx.Alloc
// fetch-adds the shared bump pointer) versus enabled (the default ~4096-
// word chunks — one contended atomic per chunk). Unlike the cross-core
// protocol ablations, the reservation win is visible even single-core:
// the private-chunk path replaces a lock-prefixed RMW with a plain field
// bump on every allocation.
func BenchmarkAblationAllocChunk(b *testing.B) {
	const (
		threads = 8
		perT    = 1500
		allocsN = 8 // allocations per transaction
	)
	for _, arm := range []struct {
		name  string
		chunk int
	}{
		{"chunk=direct", -1},
		{"chunk=default", 0},
	} {
		b.Run(arm.name, func(b *testing.B) {
			var commits uint64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				// threads × perT × allocsN × 2 words plus reservation tails.
				arena := stamp.NewArena(1 << 19)
				heads := make([]stamp.Addr, threads)
				for j := range heads {
					heads[j] = arena.AllocLines(1)
				}
				sys, err := factory.New("stm-lazy", tm.Config{
					Arena: arena, Threads: threads, AllocChunk: arm.chunk,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				team := thread.NewTeam(threads)
				team.Run(func(tid int) {
					th := sys.Thread(tid)
					head := heads[tid]
					for j := 0; j < perT; j++ {
						th.Atomic(func(tx tm.Tx) {
							for k := 0; k < allocsN; k++ {
								node := tx.Alloc(2)
								tx.Store(node, uint64(j*allocsN+k))
								tx.Store(node+1, tx.Load(head))
								tx.Store(head, uint64(node))
							}
						})
					}
				})
				b.StopTimer()
				commits += sys.Stats().Total.Commits
				b.StartTimer()
			}
			b.ReportMetric(float64(commits)/float64(b.N), "tx/run")
			b.ReportMetric(float64(commits*allocsN)/float64(b.N), "allocs/run")
		})
	}
}

// BenchmarkAblationTraceOverhead measures what the observability layer
// costs on a contended workload (hot counter plus scattered transfers on
// the lazy STM at 8 threads — the same shape as the contention-manager
// ablation, where the abort path with its cause stamping and sketch
// recording actually runs): tracing off (the default; the acceptance bar is
// that the always-on attribution keeps ns/op within noise of the
// pre-observability baseline), sampling every 64th block, and tracing every
// block. The sampled arms also report how many ring events a run produces
// and the abort-cause mix, so the BENCH_*.json trajectory carries the cause
// counters.
func BenchmarkAblationTraceOverhead(b *testing.B) {
	const threads = 8
	const perT = 1500
	for _, arm := range []struct {
		name  string
		trace int
	}{
		{"trace=off", 0},
		{"trace=64", 64},
		{"trace=full", 1},
	} {
		b.Run(arm.name, func(b *testing.B) {
			var aborts, commits, events uint64
			var causes [tm.NumCauses]uint64
			for i := 0; i < b.N; i++ {
				b.StopTimer() // arena/system construction stays out of ns/op
				arena := stamp.NewArena(1 << 12)
				hot := arena.Alloc(1)
				cells := make([]stamp.Addr, 32)
				for j := range cells {
					cells[j] = arena.AllocLines(1)
				}
				sys, err := factory.New("stm-lazy", tm.Config{
					Arena: arena, Threads: threads, Trace: arm.trace,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				team := thread.NewTeam(threads)
				team.Run(func(tid int) {
					th := sys.Thread(tid)
					for j := 0; j < perT; j++ {
						if j%4 == 0 {
							a := cells[(tid*7+j)%len(cells)]
							c := cells[(tid+j*5)%len(cells)]
							th.Atomic(func(tx tm.Tx) {
								tx.Store(a, tx.Load(a)+1)
								tx.Store(c, tx.Load(c)+1)
							})
							continue
						}
						th.Atomic(func(tx tm.Tx) {
							tx.Store(hot, tx.Load(hot)+1)
						})
					}
				})
				b.StopTimer()
				st := sys.Stats()
				aborts += st.Total.Aborts
				commits += st.Total.Commits
				for c, n := range st.AbortCauses() {
					causes[c] += n
				}
				events += uint64(len(tm.TraceEvents(sys)))
				b.StartTimer()
			}
			b.ReportMetric(float64(aborts)/float64(max(commits, 1)), "retries/tx")
			b.ReportMetric(float64(events)/float64(b.N), "events/run")
			for c, n := range causes {
				if n != 0 {
					b.ReportMetric(float64(n)/float64(b.N), tm.AbortCause(c).String()+"/run")
				}
			}
		})
	}
}

// BenchmarkAblationChaosOverhead pins the cost of the fault-injection layer
// on the contended stm-lazy workload of the trace ablation: chaos off (the
// default — every site is one nil-pointer test) against an armed injector
// whose probabilities are all zero (the sites draw no randomness but do load
// per-thread injector state). The acceptance bar is that both arms stay
// within noise of each other — chaos must cost nothing when it cannot fire.
func BenchmarkAblationChaosOverhead(b *testing.B) {
	const threads = 8
	const perT = 1500
	for _, arm := range []struct {
		name string
		spec string
	}{
		{"chaos=off", ""},
		{"chaos=armed-p0", "1:tl2-lock-acquire:0,tl2-lock-release:0,cm-wait-drop:0"},
	} {
		b.Run(arm.name, func(b *testing.B) {
			var aborts, commits uint64
			for i := 0; i < b.N; i++ {
				b.StopTimer() // arena/system construction stays out of ns/op
				arena := stamp.NewArena(1 << 12)
				hot := arena.Alloc(1)
				cells := make([]stamp.Addr, 32)
				for j := range cells {
					cells[j] = arena.AllocLines(1)
				}
				sys, err := factory.New("stm-lazy", tm.Config{
					Arena: arena, Threads: threads, Chaos: arm.spec,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				team := thread.NewTeam(threads)
				team.Run(func(tid int) {
					th := sys.Thread(tid)
					for j := 0; j < perT; j++ {
						if j%4 == 0 {
							a := cells[(tid*7+j)%len(cells)]
							c := cells[(tid+j*5)%len(cells)]
							th.Atomic(func(tx tm.Tx) {
								tx.Store(a, tx.Load(a)+1)
								tx.Store(c, tx.Load(c)+1)
							})
							continue
						}
						th.Atomic(func(tx tm.Tx) {
							tx.Store(hot, tx.Load(hot)+1)
						})
					}
				})
				b.StopTimer()
				st := sys.Stats()
				aborts += st.Total.Aborts
				commits += st.Total.Commits
				b.StartTimer()
			}
			b.ReportMetric(float64(aborts)/float64(max(commits, 1)), "retries/tx")
		})
	}
}

// BenchmarkAblationHTMCapacity sweeps the lazy HTM's speculative capacity
// on labyrinth-style transactions, locating the serialization cliff.
func BenchmarkAblationHTMCapacity(b *testing.B) {
	for _, capacity := range []int{64, 256, 1024, 4096} {
		b.Run(fmt.Sprintf("lines=%d", capacity), func(b *testing.B) {
			app := labyrinth.New(labyrinth.Config{X: 16, Y: 16, Z: 3, Paths: 16, Seed: 5})
			var aborts uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				arena := mem.NewArena(app.ArenaWords())
				app.Setup(arena)
				sys, err := factory.New("htm-lazy", tm.Config{
					Arena: arena, Threads: 4,
					CapacityLines: capacity, EnableEarlyRelease: true,
				})
				if err != nil {
					b.Fatal(err)
				}
				app.Run(sys, thread.NewTeam(4))
				if err := app.Verify(arena); err != nil {
					b.Fatal(err)
				}
				aborts += sys.Stats().Total.Aborts
			}
			b.ReportMetric(float64(aborts)/float64(b.N), "aborts/run")
		})
	}
}

// mvBenchBlocks are registered once: the read-only mark is what routes the
// sum blocks onto stm-mv's snapshot path (the other runtimes ignore it).
var (
	mvBenchSum   = tm.NewROBlock("mv-bench/sum")
	mvBenchWrite = tm.NewBlock("mv-bench/write")
)

// BenchmarkAblationMVReadHeavy: a read-dominated mix (15/16 read-only sums
// over a shared table, 1/16 writer increments) on the multi-version STM
// against the single-version TL2 and NOrec (whose read-only commits are
// free), across thread counts. The paper's read-dominated workloads are where validation
// and lock-probe costs dominate STM overhead; stm-mv's claim is that its
// snapshot readers pay zero validation and zero aborts (retries/tx stays at
// the writers' share) at the cost of the writers' ring maintenance. The
// lock-acquires/tx metric shows the reader side staying off the lock table
// entirely on stm-mv.
func BenchmarkAblationMVReadHeavy(b *testing.B) {
	const (
		cells = 64
		sumN  = 16 // cells read per read-only transaction
		perT  = 2000
	)
	for _, sysName := range []string{"stm-mv", "stm-lazy", "stm-norec"} {
		for _, threads := range []int{1, 4, 8} {
			b.Run(fmt.Sprintf("%s/threads=%d", sysName, threads), func(b *testing.B) {
				var aborts, commits, lockAcqs uint64
				hasLockMetric := false
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					arena := mem.NewArena(1 << 12)
					base := arena.Alloc(cells)
					sys, err := factory.New(sysName, tm.Config{Arena: arena, Threads: threads})
					if err != nil {
						b.Fatal(err)
					}
					team := thread.NewTeam(threads)
					team.Run(func(tid int) {
						th := sys.Thread(tid)
						var sink uint64
						for j := 0; j < perT; j++ {
							if j%16 == 0 {
								a := base + mem.Addr((tid*31+j)%cells)
								th.AtomicAt(mvBenchWrite, func(tx tm.Tx) {
									tx.Store(a, tx.Load(a)+1)
								})
								continue
							}
							th.AtomicAt(mvBenchSum, func(tx tm.Tx) {
								var s uint64
								for k := 0; k < sumN; k++ {
									s += tx.Load(base + mem.Addr((tid*17+j*7+k*5)%cells))
								}
								sink = s
							})
						}
						_ = sink
					})
					st := sys.Stats()
					aborts += st.Total.Aborts
					commits += st.Total.Commits
					if la, ok := sys.(interface{ LockAcquires() uint64 }); ok {
						lockAcqs += la.LockAcquires()
						hasLockMetric = true
					}
				}
				b.ReportMetric(float64(aborts)/float64(max(commits, 1)), "retries/tx")
				if hasLockMetric { // tl2 exposes no acquisition counter
					b.ReportMetric(float64(lockAcqs)/float64(max(commits, 1)), "lock-acquires/tx")
				}
			})
		}
	}
}

// BenchmarkAblationTransactionalFree is the allocator-lifecycle ablation:
// the same balanced alloc/free churn with the reserver free lists on (the
// default) vs off (NoRecycle, the seed's leak-everything tmalloc). Both
// arms get an arena big enough to survive without recycling, so the
// comparison isolates the free lists' speed and their effect on the arena
// high-water mark — the recycle arm's high-water must stay near the live
// set while the leak arm's grows with every transaction.
func BenchmarkAblationTransactionalFree(b *testing.B) {
	const (
		threads   = 8
		perT      = 1500
		nodeWords = 6
	)
	for _, arm := range []struct {
		name      string
		noRecycle bool
	}{
		{"recycle=on", false},
		{"recycle=off", true},
	} {
		b.Run(arm.name, func(b *testing.B) {
			var highWater uint64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				// The leak arm burns threads×perT×nodeWords plus chunk tails.
				arena := stamp.NewArena(1 << 17)
				sys, err := factory.New("stm-lazy", tm.Config{
					Arena: arena, Threads: threads, NoRecycle: arm.noRecycle,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				team := thread.NewTeam(threads)
				team.Run(func(tid int) {
					th := sys.Thread(tid)
					for j := 0; j < perT; j++ {
						th.Atomic(func(tx tm.Tx) {
							node := tx.Alloc(nodeWords)
							for w := 0; w < nodeWords; w++ {
								tx.Store(node+mem.Addr(w), uint64(j+w))
							}
							tx.Free(node, nodeWords)
						})
					}
				})
				b.StopTimer()
				highWater += uint64(arena.Used())
				b.StartTimer()
			}
			b.ReportMetric(float64(highWater)/float64(b.N), "high-water-words/run")
		})
	}
}

// BenchmarkAblationEpochSwapPause measures the serving-mode epoch swap's
// stop-the-world floor — the live-store compaction — as a function of
// store size. The swap pause a client can observe is this copy plus the
// in-flight request drain, so the scaling here is what bounds Options
// .SwapAt tuning: pause grows with the live set, not with the garbage
// being discarded.
func BenchmarkAblationEpochSwapPause(b *testing.B) {
	for _, records := range []int{1024, 4096, 16384} {
		b.Run(fmt.Sprintf("records=%d", records), func(b *testing.B) {
			words := vacation.StoreWords(records) + 1<<16
			var live uint64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				src := stamp.NewArena(words)
				sm := mem.Direct{A: src}
				st := vacation.NewStore(sm, records, 42)
				dst := stamp.NewArena(words)
				b.StartTimer()
				out := st.CompactInto(sm, mem.Direct{A: dst})
				b.StopTimer()
				_ = out
				live += uint64(dst.Used())
				b.StartTimer()
			}
			b.ReportMetric(float64(live)/float64(b.N), "live-words")
		})
	}
}
