package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"time"

	"github.com/stamp-go/stamp"
	"github.com/stamp-go/stamp/internal/apps/vacation"
	"github.com/stamp-go/stamp/internal/container"
	"github.com/stamp-go/stamp/internal/mem"
	"github.com/stamp-go/stamp/internal/rng"
	"github.com/stamp-go/stamp/internal/server"
	"github.com/stamp-go/stamp/internal/thread"
	"github.com/stamp-go/stamp/internal/tm"
	"github.com/stamp-go/stamp/internal/tm/factory"
	"github.com/stamp-go/stamp/internal/tm/txset"
)

// The micro-probes time one layer's public functions in fixed-iteration
// loops, single-threaded, on inputs that do not depend on --seed: they
// describe the commit, not the workload, and every traced run repeats them.
// Iteration counts are sized to 10–40 ms a pass on the reference host (the
// simulated HTMs and hybrids take several times longer on the same counts),
// so that all of them together fit in about eight seconds.

const (
	probePasses = 3
	probeSeed   = 1
)

// prober runs passes and records the median time per iteration.
type prober struct {
	rec *recorder
	div int // smoke mode divides every iteration count
}

// measure times pass(n) probePasses times after a discarded short pass. pass
// builds its own fresh state and returns only the timed part. The recorded
// value is nanoseconds per iteration, or microseconds for names ending _us.
func (p prober) measure(name string, iters int, pass func(n int) time.Duration) {
	n := max(iters/p.div, 8)
	pass(n/4 + 1)
	var per []float64
	for i := 0; i < probePasses; i++ {
		runtime.GC()
		per = append(per, float64(pass(n).Nanoseconds())/float64(n))
	}
	v := median(per)
	if strings.HasSuffix(name, "_us") {
		v /= 1e3
	}
	p.rec.set(name, v, probePasses)
}

func runProbes(opt options, rec *recorder) {
	p := prober{rec: rec, div: 1}
	if opt.smoke {
		p.div = 200
	}
	p.tmBarriers()
	p.txsetOps()
	p.memOps()
	p.containerOps()
	p.threadTeam()
	p.serverFloor()
	p.vacationFloor()
}

// barrierShapes are BenchmarkTableV's rw1 and BenchmarkBarrier's shapes, one
// Thread.Atomic each. rw1 and wbuf-hit are kmeans' and ssca2's shape
// (read-after-write, tiny sets); filter-skip and readset-64r1w are
// vacation's and the served query's (reads that miss the write buffer, long
// read sets validated at commit).
var barrierShapes = []struct {
	name  string
	iters int
	body  func(tx tm.Tx, base mem.Addr, i int)
}{
	{"rw1", 40000, func(tx tm.Tx, base mem.Addr, i int) {
		a := base + mem.Addr(i&1023)
		tx.Store(a, tx.Load(a)+1)
	}},
	{"filter-skip", 10000, func(tx tm.Tx, base mem.Addr, _ int) {
		tx.Store(base, 1)
		for i := 1; i <= 64; i++ {
			tx.Load(base + mem.Addr(i))
		}
	}},
	{"wbuf-hit", 10000, func(tx tm.Tx, base mem.Addr, _ int) {
		for i := 0; i < 8; i++ {
			tx.Store(base+mem.Addr(i), uint64(i))
		}
		for i := 0; i < 64; i++ {
			tx.Load(base + mem.Addr(i&7))
		}
	}},
	{"readset-64r1w", 10000, func(tx tm.Tx, base mem.Addr, _ int) {
		for i := 0; i < 64; i++ {
			tx.Load(base + mem.Addr(i))
		}
		tx.Store(base, 1)
	}},
}

func (p prober) tmBarriers() {
	for _, name := range factory.Names() {
		for _, shape := range barrierShapes {
			p.measure("tm."+name+".barrier."+shape.name+"_ns", shape.iters, func(n int) time.Duration {
				arena := mem.NewArena(1 << 16)
				base := arena.Alloc(1 << 10)
				sys, err := factory.New(name, tm.Config{Arena: arena, Threads: 1})
				if err != nil {
					panic(err) // name comes from factory.Names()
				}
				th := sys.Thread(0)
				start := time.Now()
				for i := 0; i < n; i++ {
					th.Atomic(func(tx tm.Tx) { shape.body(tx, base, i) })
				}
				return time.Since(start)
			})
		}
	}
}

func (p prober) txsetOps() {
	putGet := func(k int) func(n int) time.Duration {
		return func(n int) time.Duration {
			var w txset.WriteSet
			var sink uint64
			start := time.Now()
			for i := 0; i < n; i++ {
				w.Reset()
				for j := 0; j < k; j++ {
					w.Put(mem.Addr(64+j*3), uint64(j))
				}
				for j := 0; j < k; j++ {
					v, _ := w.Get(mem.Addr(64 + j*3))
					sink += v
				}
			}
			_ = sink
			return time.Since(start)
		}
	}
	p.measure("txset.writeset.put_get_8_ns", 400000, putGet(8))
	p.measure("txset.writeset.put_get_64_ns", 30000, putGet(64))
	p.measure("txset.writeset.reset_ns", 4000000, func(n int) time.Duration {
		var w txset.WriteSet
		start := time.Now()
		for i := 0; i < n; i++ {
			w.Put(mem.Addr(i&1023), 1)
			w.Reset()
		}
		return time.Since(start)
	})
	p.measure("txset.readset.add_ns", 8000000, func(n int) time.Duration {
		var r txset.ReadSet
		start := time.Now()
		for i := 0; i < n; i++ {
			if i&63 == 0 {
				r.Reset()
			}
			r.Add(mem.Addr(i&63), uint64(i))
		}
		return time.Since(start)
	})
}

// nodeWords is the block size the allocation probes ask for: an rbtree node.
const nodeWords = 6

func (p prober) memOps() {
	p.measure("mem.arena.alloc_ns", 2000000, func(n int) time.Duration {
		arena := mem.NewArena(n*nodeWords + 64)
		start := time.Now()
		for i := 0; i < n; i++ {
			arena.Alloc(nodeWords)
		}
		return time.Since(start)
	})
	var refills, allocs uint64
	p.measure("mem.reserver.alloc_ns", 4000000, func(n int) time.Duration {
		arena := mem.NewArena(n*(nodeWords+1) + 4*tm.DefaultAllocChunk)
		r := arena.NewReserver(tm.DefaultAllocChunk)
		start := time.Now()
		for i := 0; i < n; i++ {
			r.Alloc(nodeWords)
		}
		d := time.Since(start)
		refills, allocs = r.Refills(), uint64(n)
		return d
	})
	p.rec.set("mem.reserver.refills_per_kalloc", 1000*float64(refills)/float64(allocs), 1)
	var recycled uint64
	p.measure("mem.reserver.alloc_free_cycle_ns", 2000000, func(n int) time.Duration {
		arena := mem.NewArena(1 << 16)
		r := arena.NewReserver(tm.DefaultAllocChunk)
		start := time.Now()
		for i := 0; i < n; i++ {
			a, err := r.TxAlloc(nodeWords)
			if err != nil {
				panic(err) // one live block at a time cannot fill the arena
			}
			r.TxFree(a, nodeWords)
			r.OnCommit()
		}
		d := time.Since(start)
		recycled, allocs = r.Recycled(), uint64(n)
		return d
	})
	p.rec.set("mem.reserver.recycled_share", float64(recycled)/float64(allocs*nodeWords), 1)
}

// scatter spreads i over a key space of 2^bits.
func scatter(i, bits int) uint64 { return uint64(i) * 2654435761 % (1 << bits) }

func (p prober) containerOps() {
	direct := func(words int) mem.Direct { return mem.Direct{A: mem.NewArena(words)} }
	p.measure("container.rbtree.insert_get_ns", 100000, func(n int) time.Duration {
		d := direct(n*8 + 64)
		t := container.NewRBTree(d)
		start := time.Now()
		for i := 0; i < n; i++ {
			k := scatter(i, 15)
			t.Insert(d, k, k)
			t.Get(d, k)
		}
		return time.Since(start)
	})
	p.measure("container.rbtree.remove_ns", 100000, func(n int) time.Duration {
		d := direct(n*8 + 64)
		t := container.NewRBTree(d)
		for i := 0; i < n; i++ {
			t.Insert(d, uint64(i), uint64(i))
		}
		start := time.Now()
		for i := 0; i < n; i++ {
			t.Remove(d, uint64(i)*7919%uint64(n))
		}
		return time.Since(start)
	})
	p.measure("container.hashtable.insert_get_ns", 200000, func(n int) time.Duration {
		d := direct(n*4 + 1<<14)
		t := container.NewHashtable(d, 1<<12)
		start := time.Now()
		for i := 0; i < n; i++ {
			k := scatter(i, 15)
			t.Insert(d, k, k)
			t.Get(d, k)
		}
		return time.Since(start)
	})
	p.measure("container.list.insert_remove_ns", 200000, func(n int) time.Duration {
		d := direct(n*4 + 256)
		l := container.NewList(d)
		for k := uint64(0); k < 32; k++ {
			l.Insert(d, 2*k, k)
		}
		start := time.Now()
		for i := 0; i < n; i++ {
			k := uint64(2*(i&31) + 1)
			l.Insert(d, k, k)
			l.Remove(d, k)
		}
		return time.Since(start)
	})
	p.measure("container.queue.push_pop_ns", 2000000, func(n int) time.Duration {
		d := direct(1 << 12)
		q := container.NewQueue(d, 1024)
		start := time.Now()
		for i := 0; i < n; i++ {
			q.Push(d, uint64(i))
			q.Pop(d)
		}
		return time.Since(start)
	})
	p.measure("container.heap.push_pop_ns", 400000, func(n int) time.Duration {
		d := direct(1 << 12)
		h := container.NewHeap(d, 1<<10)
		start := time.Now()
		for i := 0; i < n; i++ {
			h.Push(d, scatter(i, 10), 0)
			if h.Len(d) > 512 {
				h.Pop(d)
			}
		}
		return time.Since(start)
	})
}

func (p prober) threadTeam() {
	p.measure("thread.team_run_us", 8000, func(n int) time.Duration {
		team := thread.NewTeam(tmThreads)
		start := time.Now()
		for i := 0; i < n; i++ {
			team.Run(func(int) {})
		}
		return time.Since(start)
	})
}

// serverFloor times the serving layer alone: one client, an idle pool, a
// one-item query — admission, hand-off, wake-up and reply with almost no
// transaction inside; then the same request through the HTTP handler.
func (p prober) serverFloor() {
	serve := func() *stamp.Server {
		srv, err := stamp.Serve(stamp.ServerOptions{Workers: serveWorkers, Seed: probeSeed})
		if err != nil {
			panic(err) // default options
		}
		return srv
	}
	p.measure("server.do_roundtrip_ns", 15000, func(n int) time.Duration {
		srv := serve()
		defer srv.Close()
		req := server.Request{Op: server.OpQuery, Items: []vacation.Item{{Typ: 0, ID: 1}}}
		start := time.Now()
		for i := 0; i < n; i++ {
			srv.Do(&req)
		}
		return time.Since(start)
	})
	p.measure("server.http.query_us", 5000, func(n int) time.Duration {
		srv := serve()
		defer srv.Close()
		h := srv.Handler()
		body := []byte(`{"items":[{"Typ":0,"ID":1}]}`)
		start := time.Now()
		for i := 0; i < n; i++ {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)))
			if w.Code != http.StatusOK {
				panic("server.http.query_us: status " + http.StatusText(w.Code))
			}
		}
		return time.Since(start)
	})
}

// vacationFloor times the four Store operations over mem.Direct: what a
// served request costs before TM and the server are added.
func (p prober) vacationFloor() {
	byOp := map[server.OpKind][]server.Request{}
	for _, req := range genRequests(rng.New(probeSeed), 200000/p.div, 50) {
		byOp[req.Op] = append(byOp[req.Op], req)
	}
	ops := []struct {
		name  string
		op    server.OpKind
		iters int
	}{
		{"query", server.OpQuery, 60000},
		{"reserve", server.OpReserve, 40000},
		{"update", server.OpUpdate, 2000},
		{"cancel", server.OpCancel, 2000},
	}
	for _, o := range ops {
		p.measure("vacation.store."+o.name+"_direct_ns", o.iters, func(n int) time.Duration {
			reqs := byOp[o.op][:n]
			m := mem.Direct{A: mem.NewArena(vacation.StoreWords(serveRecords) + 1<<22)}
			st := vacation.NewStore(m, serveRecords, probeSeed)
			if o.op == server.OpCancel { // cancelling needs bookings to release
				for i := range byOp[server.OpReserve][:20*n] {
					applyDirect(&st, m, &byOp[server.OpReserve][i])
				}
			}
			start := time.Now()
			for i := range reqs {
				applyDirect(&st, m, &reqs[i])
			}
			return time.Since(start)
		})
	}
}
