package main

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"github.com/stamp-go/stamp"
	"github.com/stamp-go/stamp/internal/apps/vacation"
	"github.com/stamp-go/stamp/internal/mem"
	"github.com/stamp-go/stamp/internal/rng"
	"github.com/stamp-go/stamp/internal/server"
	"github.com/stamp-go/stamp/internal/tm"
	"github.com/stamp-go/stamp/internal/tm/trace"
)

// Load shape of both serving workloads: the whole load comes from this one
// process through Server.Do — no sockets, no pacer goroutine. Closed loop
// because in-process callers of Do each wait for their reply, and at 3–12 µs
// a request an open-loop pacer would measure Go timer jitter or take a core
// from the pool.
//
// The timed loads run on one P (GOMAXPROCS 1). On two, where the Go
// scheduler puts two clients and two workers decides the result: a client
// and the worker that serves it on the same P hand over through runnext and
// the load takes 0.17 s, on different Ps every request crosses cores twice
// and it takes 0.27 s — more than the one P's 0.21 s — and which of the two a
// repetition gets changes with the state of the host, for minutes at a time
// (README.md, "Steadiness"). On one P the order of hand-overs is fixed and
// what is timed is the program's cost per request. A traced run also
// repeats the load on two Ps and reports it per layer, without a bound.
const (
	serveWorkers  = 2
	serveClients  = 2
	serveRecords  = 16384 // server.Options' default store, spelled out for the generator
	userPct       = 90    // of read-write requests: reservations; the rest cancel/update half and half
	queriesPerTx  = 4
	queryRangePct = 60
	warmRequests  = 2000 // per repetition, before the timed load
	spanEvery     = 16   // a traced load records one Do span in 16

	// repDeadline abandons a repetition that has fallen into swap thrash (a
	// 10 ms compaction per request): a load of well under a second that is
	// still running after this long fails its unsent requests instead of
	// holding the run for an hour.
	repDeadline = 20 * time.Second
)

// serveSpec is one traffic mix. Every repetition replays the same
// per-client streams against a fresh server, so repetitions do equal work.
type serveSpec struct {
	roPct     int // share of read-only queries
	perClient int // requests per client per repetition
	opBudget  int // server.Options.OpBudget (0 = default: no epoch swaps at these counts)
}

var (
	// serveRead: ~4 µs of TM work a request, so admission, hand-off and
	// wake-up are the largest share; no allocation pressure, no swaps.
	serveRead = serveSpec{roPct: 90, perClient: 30000}
	// serveWrite: writer transactions, customer churn through the reserver
	// free lists, and an arena small enough that every repetition sees one
	// epoch swap, near request 55,000 of 62,000. One and not the 4–8 first
	// asked for: the free lists leave almost no garbage, so what fills the
	// arena is the live set (customers' growing reservation lists), which a
	// swap cannot shrink; swaps then come in a geometric rush that ends in
	// one swap per request (README.md, "Sizing").
	serveWrite = serveSpec{roPct: 10, perClient: 30000, opBudget: 7500}
)

// genRequests draws n requests from the mix, with the semantics of
// server.LoadOptions (ROPct, UserPct, QueriesPerTx, QueryRangePct).
func genRequests(r *rng.Rand, n, roPct int) []server.Request {
	queryRange := serveRecords * queryRangePct / 100
	items := func() []vacation.Item {
		out := make([]vacation.Item, queriesPerTx)
		for i := range out {
			out[i] = vacation.Item{Typ: r.Intn(vacation.NumTypes), ID: r.Intn(queryRange) + 1}
		}
		return out
	}
	reqs := make([]server.Request, n)
	for i := range reqs {
		if r.Intn(100) < roPct {
			reqs[i] = server.Request{Op: server.OpQuery, Items: items()}
			continue
		}
		switch action := r.Intn(100); {
		case action < userPct:
			reqs[i] = server.Request{Op: server.OpReserve, Customer: r.Intn(queryRange) + 1, Items: items()}
		case action < userPct+(100-userPct)/2:
			reqs[i] = server.Request{Op: server.OpCancel, Customer: r.Intn(queryRange) + 1}
		default:
			updates := make([]vacation.Update, queriesPerTx)
			for j := range updates {
				updates[j] = vacation.Update{Typ: r.Intn(vacation.NumTypes), ID: r.Intn(queryRange) + 1,
					Add: r.Intn(2) == 0, Num: r.Intn(5) + 1, Price: r.Intn(450) + 50}
			}
			reqs[i] = server.Request{Op: server.OpUpdate, Updates: updates}
		}
	}
	return reqs
}

// applyDirect runs one request's Store operation on m with no TM and no
// server: the application floor.
func applyDirect(st *vacation.Store, m tm.Mem, req *server.Request) {
	switch req.Op {
	case server.OpQuery:
		st.QueryFree(m, req.Items)
	case server.OpReserve:
		st.MakeReservation(m, req.Customer, req.Items)
	case server.OpCancel:
		st.DeleteCustomer(m, req.Customer)
	case server.OpUpdate:
		st.UpdateTables(m, req.Updates)
	}
}

// replayDirect applies the clients' streams, interleaved, to a fresh store
// from one goroutine and returns the wall time: the serving workloads' seq
// baseline, Figure 1's denominator.
func replayDirect(streams [][]server.Request, seed uint64) time.Duration {
	n := len(streams[0])
	arena := mem.NewArena(vacation.StoreWords(serveRecords) + len(streams)*n*64 + 1<<16)
	m := mem.Direct{A: arena}
	st := vacation.NewStore(m, serveRecords, seed)
	runtime.GC()
	start := time.Now()
	for i := 0; i < n; i++ {
		for c := range streams {
			applyDirect(&st, m, &streams[c][i])
		}
	}
	return time.Since(start)
}

// doSpan is one sampled Do call of a traced load.
type doSpan struct{ start, end time.Time }

// clientResult is what one closed-loop client saw.
type clientResult struct {
	latNs                   []int64 // one per request sent, in stream order
	rejected, errored, torn int
	unsent                  int // requests abandoned at repDeadline
	spans                   []doSpan
	firstErr                error
}

// runClient sends reqs one at a time, each after the previous reply. One
// clock read per request: a reply's timestamp starts the next request.
func runClient(srv *stamp.Server, reqs []server.Request, traced bool) clientResult {
	res := clientResult{latNs: make([]int64, len(reqs))}
	if traced {
		res.spans = make([]doSpan, 0, len(reqs)/spanEvery+1)
	}
	start := time.Now()
	prev := start
	for i := range reqs {
		if i%1024 == 0 && prev.Sub(start) > repDeadline {
			res.latNs, res.unsent = res.latNs[:i], len(reqs)-i
			break
		}
		resp := srv.Do(&reqs[i])
		now := time.Now()
		res.latNs[i] = now.Sub(prev).Nanoseconds()
		if traced && i%spanEvery == 0 {
			res.spans = append(res.spans, doSpan{prev, now})
		}
		prev = now
		switch {
		case resp.Err == nil:
			res.torn += int(resp.Torn)
		case errors.Is(resp.Err, server.ErrQueueFull):
			res.rejected++
		default:
			res.errored++
		}
		if resp.Err != nil && res.firstErr == nil {
			res.firstErr = resp.Err
		}
	}
	return res
}

// serveRep is one repetition: fresh server, warm-up, timed load, checks.
type serveRep struct {
	setup, wall time.Duration
	p50, p99    float64        // Do round trip over all clients' requests, µs
	rssMiB      float64        // resident set when the load ended
	clients     []clientResult // an untraced run drops them once the repetition is checked
	gauges      server.Gauges
	stats       tm.Stats
	system      string // the pool's runtime
}

// latency returns the exact median and 99th-percentile Do round trip over
// all the clients' requests, in microseconds.
func latency(clients []clientResult) (p50, p99 float64) {
	var lat []int64
	for _, cl := range clients {
		lat = append(lat, cl.latNs...)
	}
	slices.Sort(lat)
	return nsQuantile(lat, 0.50), nsQuantile(lat, 0.99)
}

// It reports false only when the server could not be built.
func runServeRep(opt options, spec serveSpec, rec *recorder, tr *tracer, round int, warm []server.Request, streams [][]server.Request) (serveRep, bool) {
	var rep serveRep
	where := fmt.Sprintf("repetition %d", round)
	// Collect the previous repetition's server first, so that this one's
	// arena, tables and per-thread descriptors land where the last one's
	// did. Without it, servers alternate between two heap layouts that
	// differ by a third in CPU time per request (see README.md, "Steadiness").
	runtime.GC()
	id := tr.open(0, "rep", where, time.Now())
	t0 := time.Now()
	srv, err := stamp.Serve(stamp.ServerOptions{Workers: serveWorkers, OpBudget: spec.opBudget, Seed: opt.seed})
	if err != nil {
		rec.attempted++
		rec.fail(1, where, err)
		return rep, false
	}
	t1 := time.Now()
	for i := range warm {
		srv.Do(&warm[i])
	}
	t2 := time.Now()
	runtime.GC()

	rep.clients = make([]clientResult, len(streams))
	var wg sync.WaitGroup
	t3 := time.Now()
	for c := range streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rep.clients[c] = runClient(srv, streams[c], tr != nil)
		}()
	}
	wg.Wait()
	t4 := time.Now()
	rep.rssMiB = residentMiB()
	rep.gauges = srv.Snapshot()
	rep.stats = srv.TMStats()
	rep.system = srv.System()
	invariants := srv.CheckInvariants()
	t5 := time.Now()
	closeErr := srv.Close()
	t6 := time.Now()
	rep.setup, rep.wall = t2.Sub(t0), t4.Sub(t3)
	rep.p50, rep.p99 = latency(rep.clients)

	tr.add(id, "serve.new", where, t0, t1)
	tr.add(id, "warmup", where, t1, t2)
	load := tr.add(id, "load", where, t3, t4)
	for c, cl := range rep.clients {
		cid := tr.add(load, "client", fmt.Sprintf("%s client %d", where, c), t3, t4)
		for _, s := range cl.spans {
			tr.add(cid, "do", "", s.start, s.end)
		}
	}
	tr.add(id, "snapshot", where, t4, t5)
	tr.add(id, "close", where, t5, t6)
	tr.close(id, t6)

	// The correctness gate: every request is one operation; rejected,
	// errored, torn and lost ones fail, and a broken store or an abort with
	// no cause fails the whole repetition.
	sent := len(streams) * len(streams[0])
	rec.attempted += sent
	for c, cl := range rep.clients {
		if n := cl.rejected + cl.errored + cl.torn + cl.unsent; n > 0 {
			rec.fail(n, fmt.Sprintf("%s client %d", where, c),
				fmt.Errorf("%d rejected, %d errored, %d torn, %d unsent at the %v deadline (first error: %v)",
					cl.rejected, cl.errored, cl.torn, cl.unsent, repDeadline, cl.firstErr))
			sent -= cl.unsent
		}
	}
	g := rep.gauges
	if answered := int(g.Served + g.Failed + g.Rejected); answered < sent+len(warm) {
		rec.fail(sent+len(warm)-answered, where, errors.New("requests lost"))
	}
	for _, err := range []error{invariants, closeErr} {
		if err != nil {
			rec.fail(sent, where, err)
		}
	}
	if n := rep.stats.AbortCauses()[trace.CauseUnknown]; n != 0 {
		rec.fail(sent, where, fmt.Errorf("%d aborts with no cause", n))
	}
	return rep, true
}

// runServe drives one traffic mix: generate the streams once, then a
// discarded warm-up repetition and as many timed ones as the budget holds.
func runServe(opt options, rec *recorder, tr *tracer, spec serveSpec) {
	if opt.smoke {
		spec.perClient /= 10
	}
	t0 := time.Now()
	warm := genRequests(rng.New(opt.seed^0x7761726d), warmRequests, spec.roPct)
	streams := make([][]server.Request, serveClients)
	for c := range streams {
		streams[c] = genRequests(rng.New(opt.seed^uint64(c)), spec.perClient, spec.roPct)
	}
	t1 := time.Now()
	tr.add(0, "make", "", t0, t1)

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var reps, parallel []serveRep
	var traced, untraced, seq []float64
	rounds(opt, 3, func(round int) {
		// The seq baseline is sampled between repetitions, so that a drift
		// of the host's speed moves numerator and denominator together.
		if !opt.trace && round%4 == 1 {
			seq = append(seq, replayDirect(streams, opt.seed).Seconds())
		}
		// A traced run cycles through three kinds of timed round: spans
		// recorded, no spans (the two give the tracing overhead), two Ps.
		var roundTracer *tracer
		twoPs := false
		if opt.trace && round > 0 {
			switch round % 3 {
			case 1:
				roundTracer = tr
			case 0:
				twoPs = true
			}
		}
		if twoPs {
			runtime.GOMAXPROCS(serveWorkers)
		}
		rep, ok := runServeRep(opt, spec, rec, roundTracer, round, warm, streams)
		runtime.GOMAXPROCS(1)
		if !opt.trace {
			rep.clients = nil // 1 MB of samples a repetition; only serveLayers reads them again
		}
		switch {
		case !ok || round == 0:
		case twoPs:
			parallel = append(parallel, rep)
		default:
			reps = append(reps, rep)
			if roundTracer != nil {
				traced = append(traced, rep.wall.Seconds())
			} else {
				untraced = append(untraced, rep.wall.Seconds())
			}
		}
	})
	if len(reps) == 0 {
		return // every repetition failed; the failures are already counted
	}
	var walls []float64
	for _, rep := range reps {
		walls = append(walls, rep.wall.Seconds())
	}
	fmt.Fprintf(rec.log, "load: %d repetitions, wall %.4fs (lower quartile; min %.4fs, median %.4fs, max %.4fs)\n",
		len(walls), typical(walls), slices.Min(walls), median(walls), slices.Max(walls))

	if opt.trace {
		if len(traced) == 0 || len(untraced) == 0 || len(parallel) == 0 {
			return // a kind of round failed every time; the failures are already counted
		}
		serveLayers(rec, reps, parallel, streams)
		rec.set("trace.overhead_share", (typical(traced)-typical(untraced))/typical(untraced), len(traced))
		return
	}
	var setups, p50s, p99s, rss []float64
	for _, rep := range reps {
		setups = append(setups, rep.setup.Seconds())
		rss = append(rss, rep.rssMiB)
		p50s, p99s = append(p50s, rep.p50), append(p99s, rep.p99)
	}
	sent := float64(serveClients * spec.perClient)
	wall := typical(walls)
	rec.set("setup_s", t1.Sub(t0).Seconds()+median(setups), len(setups))
	rec.set("wall_s", wall, len(walls))
	rec.set("tx_per_s", sent/wall, len(walls))
	rec.set("speedup_vs_seq", typical(seq)/wall, len(walls))
	rec.set("p50_us", typical(p50s), len(reps)*int(sent))
	rec.set("p99_us", typical(p99s), len(reps)*int(sent))
	rec.set("peak_rss_mb", median(rss), len(rss))
}

// serveLayers reports the server layer's metrics. From the one-P
// repetitions, which the end-to-end metrics are made of: per-operation
// latency as the clients saw it, the pool's gauges and the epoch-swap
// lifecycle. From the two-P repetitions: the same load's wall and latency
// with the workers running in parallel, and the transactional statistics,
// which need two transactions at once to show a conflict.
func serveLayers(rec *recorder, reps, parallel []serveRep, streams [][]server.Request) {
	perOp := map[server.OpKind][]int64{}
	var all []int64
	var rejected, swaps, pauseNs, queueHW float64
	var usedShare []float64
	for _, rep := range reps {
		for c, cl := range rep.clients {
			all = append(all, cl.latNs...)
			for i, ns := range cl.latNs {
				op := streams[c][i].Op
				perOp[op] = append(perOp[op], ns)
			}
		}
		g := rep.gauges
		rejected += float64(g.Rejected)
		swaps += float64(g.Swaps)
		pauseNs += float64(g.SwapPauseNs)
		queueHW = max(queueHW, float64(g.QueueHW))
		usedShare = append(usedShare, float64(g.ArenaUsed)/float64(g.ArenaCap))
	}
	for _, op := range []server.OpKind{server.OpQuery, server.OpReserve, server.OpCancel, server.OpUpdate} {
		lat := perOp[op]
		slices.Sort(lat)
		rec.set("server.op."+op.String()+".p50_us", nsQuantile(lat, 0.50), len(lat))
		rec.set("server.op."+op.String()+".p99_us", nsQuantile(lat, 0.99), len(lat))
	}
	slices.Sort(all)
	n := float64(len(reps))
	rec.set("server.p999_us", nsQuantile(all, 0.999), len(all))
	rec.set("server.queue_high_water", queueHW, len(reps))
	rec.set("server.rejected", rejected, len(all))
	rec.set("server.swaps", swaps/n, len(reps))
	rec.set("server.swap_pause_ms_total", pauseNs/n/1e6, len(reps))
	if swaps > 0 {
		rec.set("server.swap_pause_ms_mean", pauseNs/swaps/1e6, int(swaps))
	}
	rec.set("server.arena_used_share", mean(usedShare), len(reps))

	var total tm.ThreadStats
	var roAborts, wallNs float64
	var walls, p50s, p99s []float64
	for _, rep := range parallel {
		total.Merge(&rep.stats.Total)
		for _, row := range rep.stats.Blocks() {
			if row.Name == "stampd/query" {
				roAborts += float64(row.Aborts)
			}
		}
		wallNs += float64(rep.wall.Nanoseconds())
		walls = append(walls, rep.wall.Seconds())
		p50s, p99s = append(p50s, rep.p50), append(p99s, rep.p99)
	}
	n = float64(len(parallel))
	rec.set("server.2p.wall_s", median(walls), len(walls))
	rec.set("server.2p.p50_us", median(p50s), len(walls))
	rec.set("server.2p.p99_us", median(p99s), len(walls))
	rec.set("server.tm.retries_per_tx", float64(total.Aborts)/float64(total.Commits), int(total.Commits))
	rec.set("server.tm.ro_aborts", roAborts/n, len(parallel))

	// The pool's runtime, under the same names the batch cells report.
	sys := "tm." + parallel[0].system
	threadNs := serveWorkers * wallNs
	rec.set(sys+".retries_per_tx", float64(total.Aborts)/float64(total.Commits), int(total.Commits))
	rec.set(sys+".wasted_barrier_share", float64(total.Wasted)/float64(total.Loads+total.Stores+total.Wasted), int(total.Commits))
	rec.set(sys+".tx_time_share", float64(total.TxTimeNs)/threadNs, int(total.Commits))
	rec.set(sys+".cm_wait_share", float64(total.CMWaitNs)/threadNs, int(total.Commits))
}
