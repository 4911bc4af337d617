// Ablation benchmarks for the design choices the paper argues about: early
// release, contention management, and conflict-detection granularity. Each reports the metric the paper
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

// BenchmarkAblationContentionManager sweeps every registered contention-
// management policy over the same contended workload — a hot counter plus
// scattered transfers on the lazy STM at 8 threads — reporting retries/tx,
// CM delays, and starvation escalations per policy. This is the
// policy-curve ablation the Synchrobench comparison argues for: protocol
// fixed, contention manager varied.
func BenchmarkAblationContentionManager(b *testing.B) {
	for _, cm := range stamp.CMNames() {
		b.Run("cm="+cm, func(b *testing.B) {
			var aborts, commits, waits, escalations uint64
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
				escalations += st.Total.Escalations
			}
			b.ReportMetric(float64(aborts)/float64(max(commits, 1)), "retries/tx")
			b.ReportMetric(float64(waits)/float64(b.N), "cm-waits/run")
			b.ReportMetric(float64(escalations)/float64(b.N), "escalations/run")
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
