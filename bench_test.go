// Benchmarks regenerating the paper's evaluation artifacts. One benchmark
// family exists per table/figure (README's "Reproducing the paper" names
// the command behind each and the proxies Table VI measures):
//
//	BenchmarkTableVI    — the characterization runs behind Table VI
//	                      (seq run per variant)
//	BenchmarkFigure1    — one workload execution per variant × TM system
//	                      at a fixed thread count
//	BenchmarkFigure1Scaling — the thread sweep (1..16) for representative
//	                      variants of each behaviour class
//	BenchmarkTableV     — microbenchmarks of the Table V machine
//	                      parameters (signatures, barriers)
//
// Workloads run at benchScale of the paper's configuration so the full
// matrix finishes in minutes; use cmd/stamp -table 3 and -figure 1 with
// -scale 1 for full-size runs. Use -benchtime=1x for a single pass.
package stamp_test

import (
	"fmt"
	"testing"

	"github.com/stamp-go/stamp"
	"github.com/stamp-go/stamp/internal/mem"
	"github.com/stamp-go/stamp/internal/thread"
	"github.com/stamp-go/stamp/internal/tm"
	"github.com/stamp-go/stamp/internal/tm/factory"
	"github.com/stamp-go/stamp/internal/tm/sig"
)

const benchScale = 0.08

// benchRun executes one staged run per iteration, reusing the generated
// input across iterations.
func benchRun(b *testing.B, v stamp.Variant, sysName string, threads int) {
	b.Helper()
	app := v.Make(benchScale)
	b.ResetTimer()
	committed := uint64(0)
	aborted := uint64(0)
	for i := 0; i < b.N; i++ {
		arena := mem.NewArena(app.ArenaWords())
		app.Setup(arena)
		sys, err := factory.New(sysName, tm.Config{Arena: arena, Threads: threads})
		if err != nil {
			b.Fatal(err)
		}
		app.Run(sys, thread.NewTeam(threads))
		if err := app.Verify(arena); err != nil {
			b.Fatalf("verification failed: %v", err)
		}
		st := sys.Stats()
		committed += st.Total.Commits
		aborted += st.Total.Aborts
	}
	b.ReportMetric(float64(committed)/float64(b.N), "tx/run")
	b.ReportMetric(float64(aborted)/float64(max(committed, 1)), "retries/tx")
}

func max(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// BenchmarkTableVI times the sequential run that produces each
// Table VI row's barrier counts and per-transaction proxies.
func BenchmarkTableVI(b *testing.B) {
	for _, v := range stamp.SimVariants() {
		b.Run(v.Name, func(b *testing.B) {
			benchRun(b, v, "seq", 1)
		})
	}
}

// figureSystems is every registered concurrent runtime — the paper's six
// evaluated systems plus whatever the registry has grown since (stm-norec,
// stm-mv). Derived from factory.Names() rather than a written
// list so a newly registered runtime joins the protocol-comparison axis
// automatically; only the sequential baseline is excluded (it is the
// denominator, not a competitor).
func figureSystems() []string {
	var systems []string
	for _, name := range factory.Names() {
		if name != "seq" {
			systems = append(systems, name)
		}
	}
	return systems
}

// BenchmarkFigure1 runs every simulation variant on every TM system at 4
// threads — one cell of each Figure 1 panel, with retries/tx reported.
func BenchmarkFigure1(b *testing.B) {
	for _, v := range stamp.SimVariants() {
		for _, sys := range figureSystems() {
			b.Run(fmt.Sprintf("%s/%s", v.Name, sys), func(b *testing.B) {
				benchRun(b, v, sys, 4)
			})
		}
	}
}

// BenchmarkFigure1Scaling sweeps the paper's core counts for one
// representative variant of each transactional behaviour class: genome
// (moderate txs, low contention), kmeans-high (tiny txs), vacation-low
// (tree-heavy OLTP), labyrinth (huge txs, privatization).
func BenchmarkFigure1Scaling(b *testing.B) {
	reps := []string{"genome", "kmeans-high", "vacation-low", "labyrinth"}
	for _, name := range reps {
		v, err := stamp.FindVariant(name)
		if err != nil {
			b.Fatal(err)
		}
		for _, sys := range figureSystems() {
			// Three representative points of the paper's 1..16 sweep keep
			// the full matrix tractable; cmd/stamp -figure 1 runs the full sweep.
			for _, threads := range []int{1, 4, 16} {
				b.Run(fmt.Sprintf("%s/%s/t%d", name, sys, threads), func(b *testing.B) {
					benchRun(b, v, sys, threads)
				})
			}
		}
	}
}

// BenchmarkTableV microbenchmarks the simulated machine's TM primitives
// (Table V): signature insert/test and the per-system barrier costs that
// the cycle model discounts.
func BenchmarkTableV(b *testing.B) {
	b.Run("signature-insert", func(b *testing.B) {
		var s sig.Signature
		for i := 0; i < b.N; i++ {
			s.Insert(uint32(i))
		}
	})
	b.Run("signature-test", func(b *testing.B) {
		var s sig.Signature
		for i := 0; i < 1024; i++ {
			s.Insert(uint32(i * 7))
		}
		b.ResetTimer()
		hits := 0
		for i := 0; i < b.N; i++ {
			if s.Test(uint32(i)) {
				hits++
			}
		}
		_ = hits
	})
	for _, sysName := range factory.Names() {
		b.Run("barrier/"+sysName, func(b *testing.B) {
			arena := mem.NewArena(1 << 16)
			base := arena.Alloc(1 << 10)
			sys, err := factory.New(sysName, tm.Config{Arena: arena, Threads: 1})
			if err != nil {
				b.Fatal(err)
			}
			th := sys.Thread(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				th.Atomic(func(tx tm.Tx) {
					a := base + mem.Addr(i&1023)
					tx.Store(a, tx.Load(a)+1)
				})
			}
		})
	}
}

// BenchmarkBarrier extends the Table V family with per-runtime hot-path
// barrier microbenchmarks over the txset machinery, so barrier overheads
// are tracked per PR:
//
//	filter-skip     read barriers that cannot hit the write buffer (one
//	                buffered store, 64 reads elsewhere) — the txset write
//	                filter's fast path, the common case in read-dominated
//	                vacation/genome
//	wbuf-hit        read-after-write of the 8 most recent stores — the
//	                small-set linear-scan fast path
//	wbuf-miss-64w   reads against a 64-entry write buffer — hashed lookups
//	                and filter false positives
//	readset-64r1w   64 tracked reads plus one store — read-set append and
//	                the writer commit's validation path
//
// Single-threaded on purpose: these isolate per-barrier instruction cost,
// not contention (the ablation benchmarks cover that axis).
func BenchmarkBarrier(b *testing.B) {
	shapes := []struct {
		name string
		run  func(tx tm.Tx, base mem.Addr)
	}{
		{"filter-skip", func(tx tm.Tx, base mem.Addr) {
			tx.Store(base, 1)
			for i := 1; i <= 64; i++ {
				tx.Load(base + mem.Addr(i))
			}
		}},
		{"wbuf-hit", func(tx tm.Tx, base mem.Addr) {
			for i := 0; i < 8; i++ {
				tx.Store(base+mem.Addr(i), uint64(i))
			}
			for i := 0; i < 64; i++ {
				tx.Load(base + mem.Addr(i&7))
			}
		}},
		{"wbuf-miss-64w", func(tx tm.Tx, base mem.Addr) {
			for i := 0; i < 64; i++ {
				tx.Store(base+mem.Addr(i), uint64(i))
			}
			for i := 64; i < 128; i++ {
				tx.Load(base + mem.Addr(i))
			}
		}},
		{"readset-64r1w", func(tx tm.Tx, base mem.Addr) {
			for i := 0; i < 64; i++ {
				tx.Load(base + mem.Addr(i))
			}
			tx.Store(base, 1)
		}},
	}
	for _, shape := range shapes {
		for _, sysName := range factory.Names() {
			b.Run(shape.name+"/"+sysName, func(b *testing.B) {
				arena := mem.NewArena(1 << 16)
				base := arena.Alloc(1 << 10)
				sys, err := factory.New(sysName, tm.Config{Arena: arena, Threads: 1})
				if err != nil {
					b.Fatal(err)
				}
				th := sys.Thread(0)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					th.Atomic(func(tx tm.Tx) { shape.run(tx, base) })
				}
			})
		}
	}
}

// BenchmarkContainers covers the shared data-structure substrate under the
// seq system (pure operation cost, no conflicts).
func BenchmarkContainers(b *testing.B) {
	b.Run("rbtree-insert-get", func(b *testing.B) {
		arena := mem.NewArena(1 << 24)
		d := mem.Direct{A: arena}
		t := stamp.NewRBTree(d)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := uint64(i % (1 << 18))
			t.Insert(d, k, k)
			t.Get(d, k)
		}
	})
	b.Run("hashtable-insert-get", func(b *testing.B) {
		arena := mem.NewArena(1 << 24)
		d := mem.Direct{A: arena}
		t := stamp.NewHashtable(d, 1<<12)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := uint64(i % (1 << 18))
			t.Insert(d, k, k)
			t.Get(d, k)
		}
	})
	b.Run("heap-push-pop", func(b *testing.B) {
		arena := mem.NewArena(1 << 22)
		d := mem.Direct{A: arena}
		h := stamp.NewHeap(d, 1<<10)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.Push(d, uint64(i*2654435761)%1000, 0)
			if h.Len(d) > 512 {
				h.Pop(d)
			}
		}
	})
}
