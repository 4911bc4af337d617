package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"github.com/stamp-go/stamp/internal/apps"
	"github.com/stamp-go/stamp/internal/apps/intruder"
	"github.com/stamp-go/stamp/internal/apps/kmeans"
	"github.com/stamp-go/stamp/internal/apps/ssca2"
	"github.com/stamp-go/stamp/internal/apps/vacation"
	"github.com/stamp-go/stamp/internal/mem"
	"github.com/stamp-go/stamp/internal/thread"
	"github.com/stamp-go/stamp/internal/tm"
	"github.com/stamp-go/stamp/internal/tm/factory"
)

// roster is the TM systems of every batch cell, each at 2 threads, next to
// the sequential baseline at 1: the commit-time-locking TL2, the
// single-lock value-validating NOrec, and the multi-version runtime the
// server defaults to — three protocols that use txset and the barriers
// differently.
var roster = []string{"stm-lazy", "stm-norec", "stm-mv"}

const tmThreads = 2

// appSpec builds one application from the benchmark's seed. Sizes are the
// reference host's (see README.md, "Sizing"); smoke sizes only prove the
// plumbing.
type appSpec struct {
	name string
	make func(seed uint64, smoke bool) apps.App
}

func pick(smoke bool, full, tiny int) int {
	if smoke {
		return tiny
	}
	return full
}

// txShort is the tiny-transaction sweep. kmeans runs the high-contention ++
// shape (15 clusters, 32 dimensions) with a negative threshold: no
// iteration ever converges, so every seed and every system runs exactly the
// original's 500-iteration cap and commits 500×Points transactions.
var txShort = []appSpec{
	{"kmeans", func(seed uint64, smoke bool) apps.App {
		return kmeans.New(kmeans.Config{MinClusters: 15, MaxClusters: 15, Threshold: -1,
			Points: pick(smoke, 256, 16), Dims: 32, GenCenters: 16, Seed: seed})
	}},
	{"ssca2", func(seed uint64, smoke bool) apps.App {
		return ssca2.New(ssca2.Config{Scale: pick(smoke, 15, 9), ProbInter: 1, ProbUnidirect: 1,
			MaxPathLen: 3, MaxParallel: 3, Seed: seed})
	}},
}

// txLong is the container-heavy sweep: vacation's high ++ mix and
// intruder's ++ mix.
var txLong = []appSpec{
	{"vacation", func(seed uint64, smoke bool) apps.App {
		return vacation.New(vacation.Config{QueriesPerTx: 4, QueryRange: 60, PercentUser: 90,
			Records: pick(smoke, 32768, 1024), Transactions: pick(smoke, 40000, 1500), Seed: seed})
	}},
	{"intruder", func(seed uint64, smoke bool) apps.App {
		return intruder.New(intruder.Config{AttackPercent: 10, MaxPackets: pick(smoke, 128, 16),
			Flows: pick(smoke, 2048, 96), Seed: seed})
	}},
}

// cell is one (application, system) pair and the values of its timed
// repetitions.
type cell struct {
	app     apps.App
	sys     string
	threads int

	wall, tracedWall, untracedWall []float64 // seconds per repetition
	p50, p99                       []float64 // per repetition, of the sampled Thread.Atomic round trips, µs
	samples                        int       // round trips sampled, all repetitions
	total                          tm.ThreadStats
	threadNs                       float64 // threads × wall, summed
}

func (c *cell) label() string { return c.app.Name() + "/" + c.sys }

// cellRep is one repetition of a cell, phase by phase.
type cellRep struct {
	arena, stage, sysNew, wall, verify time.Duration
	rssMiB                             float64 // resident set when Run returned
	stats                              tm.Stats
	latNs                              []int64
	err                                error
}

// runOnce stages the application into a fresh arena under a fresh system and
// runs it: the calls harness.RunOne makes, each timed from outside.
func (c *cell) runOnce(tr *tracer, parent int) (rep cellRep) {
	defer func() {
		if r := recover(); r != nil {
			rep.err = fmt.Errorf("panic: %v", r)
		}
	}()
	// Collect the previous cell's arena and system first, so that every
	// repetition of this cell allocates into the same heap layout.
	runtime.GC()
	id := tr.open(parent, "cell", c.label(), time.Now())
	t0 := time.Now()
	arena := mem.NewArena(c.app.ArenaWords())
	t1 := time.Now()
	c.app.Setup(arena)
	t2 := time.Now()
	inner, err := factory.New(c.sys, tm.Config{Arena: arena, Threads: c.threads, EnableEarlyRelease: true})
	if err != nil {
		rep.err = err
		return rep
	}
	var sys tm.System = inner
	var sampled *sampledSystem
	if c.sys != "seq" {
		sampled = newSampledSystem(inner)
		sys = sampled
	}
	team := thread.NewTeam(c.threads)
	t3 := time.Now()
	runtime.GC() // staging garbage goes here, outside the timed region
	t4 := time.Now()
	c.app.Run(sys, team)
	t5 := time.Now()
	rep.rssMiB = residentMiB()
	rep.stats = inner.Stats()
	t6 := time.Now()
	rep.err = c.app.Verify(arena)
	t7 := time.Now()

	rep.arena, rep.stage, rep.sysNew = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)
	rep.wall, rep.verify = t5.Sub(t4), t7.Sub(t6)
	if sampled != nil {
		rep.latNs = sampled.samples()
	}
	tr.add(id, "arena", c.label(), t0, t1)
	tr.add(id, "setup", c.label(), t1, t2)
	tr.add(id, "system.new", c.label(), t2, t3)
	tr.add(id, "run", c.label(), t4, t5)
	tr.add(id, "stats", c.label(), t5, t6)
	tr.add(id, "verify", c.label(), t6, t7)
	tr.close(id, t7)
	return rep
}

// sampledSystem times one Thread.Atomic call in samplePeriod from outside —
// the batch workloads' per-operation latency. The period is prime so it
// cannot lock onto an application's own transaction pattern.
type sampledSystem struct {
	tm.System
	threads []*sampledThread
}

const samplePeriod = 17

type sampledThread struct {
	tm.Thread
	n   int
	lat []int64
	_   [64]byte // keep two workers' counters off one cache line
}

func newSampledSystem(inner tm.System) *sampledSystem {
	s := &sampledSystem{System: inner}
	for i := 0; i < inner.NThreads(); i++ {
		s.threads = append(s.threads, &sampledThread{Thread: inner.Thread(i), lat: make([]int64, 0, 1<<15)})
	}
	return s
}

func (s *sampledSystem) Thread(id int) tm.Thread { return s.threads[id] }

func (s *sampledSystem) samples() []int64 {
	var all []int64
	for _, t := range s.threads {
		all = append(all, t.lat...)
	}
	return all
}

func (t *sampledThread) Atomic(fn func(tm.Tx)) { t.AtomicAt(tm.NoBlock, fn) }

func (t *sampledThread) AtomicAt(b tm.BlockID, fn func(tm.Tx)) {
	t.n++
	if t.n < samplePeriod {
		t.Thread.AtomicAt(b, fn)
		return
	}
	t.n = 0
	start := time.Now()
	t.Thread.AtomicAt(b, fn)
	t.lat = append(t.lat, time.Since(start).Nanoseconds())
}

// tracedRound says which rounds of a traced batch run record spans: rounds 1, 2 of
// every four, and rounds 3, 0 none, so that traced and untraced rounds both
// fall on odd and even positions.
func tracedRound(round int) bool {
	r := round % 4
	return r == 1 || r == 2
}

// runBatch is a mini Figure 1: each application on seq at 1 thread and on
// the roster at 2, repetition k of every cell before repetition k+1 of any.
func runBatch(opt options, rec *recorder, tr *tracer, specs []appSpec) {
	var cells []*cell
	var makeS float64
	for _, spec := range specs {
		t0 := time.Now()
		app := spec.make(opt.seed, opt.smoke)
		t1 := time.Now()
		tr.add(0, "make", spec.name, t0, t1)
		makeS += t1.Sub(t0).Seconds()
		cells = append(cells, &cell{app: app, sys: "seq", threads: 1})
		for _, sys := range roster {
			cells = append(cells, &cell{app: app, sys: sys, threads: tmThreads})
		}
	}

	var roundSetup, roundStage, roundSysNew, roundVerify, roundRSS []float64
	minRounds := 3
	if opt.trace {
		minRounds = 4 // two traced, two untraced
	}
	rounds(opt, minRounds, func(round int) {
		var roundTracer *tracer
		if tracedRound(round) {
			roundTracer = tr
		}
		parent := roundTracer.open(0, "round", "", time.Now())
		var stage, sysNew, verify, rss float64
		for _, c := range cells {
			rep := c.runOnce(roundTracer, parent)
			rec.attempted++
			if rep.err != nil {
				rec.fail(1, fmt.Sprintf("cell %s round %d", c.label(), round), rep.err)
				continue
			}
			if round == 0 {
				continue
			}
			w := rep.wall.Seconds()
			c.wall = append(c.wall, w)
			if roundTracer != nil {
				c.tracedWall = append(c.tracedWall, w)
			} else {
				c.untracedWall = append(c.untracedWall, w)
			}
			if len(rep.latNs) > 0 {
				slices.Sort(rep.latNs)
				c.p50 = append(c.p50, nsQuantile(rep.latNs, 0.50))
				c.p99 = append(c.p99, nsQuantile(rep.latNs, 0.99))
				c.samples += len(rep.latNs)
			}
			c.total.Merge(&rep.stats.Total)
			c.threadNs += float64(c.threads) * float64(rep.wall.Nanoseconds())
			stage += (rep.arena + rep.stage).Seconds()
			sysNew += rep.sysNew.Seconds()
			verify += rep.verify.Seconds()
			rss = max(rss, rep.rssMiB)
		}
		roundTracer.close(parent, time.Now())
		if round > 0 {
			roundSetup = append(roundSetup, stage+sysNew)
			roundStage = append(roundStage, stage)
			roundSysNew = append(roundSysNew, sysNew)
			roundVerify = append(roundVerify, verify)
			roundRSS = append(roundRSS, rss)
		}
	})
	for _, c := range cells {
		if len(c.wall) == 0 {
			return // every repetition of a cell failed; the failures are already counted
		}
	}

	for _, c := range cells {
		fmt.Fprintf(rec.log, "cell %-20s wall %.4fs, lower quartile of %.4f; %d round trips sampled\n", c.label(), typical(c.wall), c.wall, c.samples)
	}
	if opt.trace {
		batchLayers(rec, cells, makeS, roundStage, roundSysNew, roundVerify)
		return
	}
	var wall, commits float64
	var speedups, p50s, p99s []float64
	var seqWall float64
	samples := 0
	for _, c := range cells {
		if c.sys == "seq" {
			seqWall = typical(c.wall)
			continue
		}
		w := typical(c.wall)
		wall += w
		commits += float64(c.total.Commits) / float64(len(c.wall))
		speedups = append(speedups, seqWall/w)
		p50s = append(p50s, typical(c.p50))
		p99s = append(p99s, typical(c.p99))
		samples += c.samples
	}
	reps := len(cells[0].wall)
	rec.set("setup_s", makeS+median(roundSetup), len(roundSetup))
	rec.set("wall_s", wall, reps)
	rec.set("tx_per_s", commits/wall, reps)
	rec.set("speedup_vs_seq", geomean(speedups), reps)
	rec.set("p50_us", geomean(p50s), samples)
	rec.set("p99_us", geomean(p99s), samples)
	rec.set("peak_rss_mb", median(roundRSS), len(roundRSS))
}

// typical is a timing's value over its repetitions: the lower quartile.
// Interference on a shared host only ever adds time — whole repetitions run
// 15–40 % slow for seconds at a stretch — so the lower quartile follows the
// undisturbed cost where the median follows the neighbours, and it still
// discards the luckiest quarter (README.md, "Steadiness").
func typical(xs []float64) float64 { return quantile(xs, 0.25) }

// batchLayers reports the per-layer metrics a batch workload yields: the
// per-cell breakdown of wall_s, the seq cell's exact counts, the roster's
// tm.Stats ratios (Table VI's retries and time in transactions) and the
// harness phases around each run.
func batchLayers(rec *recorder, cells []*cell, makeS float64, stage, sysNew, verify []float64) {
	type agg struct{ aborts, commits, wasted, barriers, txNs, cmNs, threadNs float64 }
	perSys := map[string]*agg{}
	var traced, untraced float64
	for _, c := range cells {
		app := c.app.Name()
		rec.set("apps."+app+"."+c.sys+".wall_s", typical(c.wall), len(c.wall))
		t := &c.total
		if c.sys == "seq" {
			n := len(c.wall)
			rec.set("apps."+app+".tx_count", float64(t.Commits)/float64(n), n)
			rec.set("apps."+app+".barriers_per_tx", float64(t.Loads+t.Stores)/float64(t.Commits), n)
			continue
		}
		traced += typical(c.tracedWall)
		untraced += typical(c.untracedWall)
		a := perSys[c.sys]
		if a == nil {
			a = &agg{}
			perSys[c.sys] = a
		}
		a.aborts += float64(t.Aborts)
		a.commits += float64(t.Commits)
		a.wasted += float64(t.Wasted)
		a.barriers += float64(t.Loads + t.Stores + t.Wasted)
		a.txNs += float64(t.TxTimeNs)
		a.cmNs += float64(t.CMWaitNs)
		a.threadNs += c.threadNs
	}
	for sys, a := range perSys {
		n := int(a.commits)
		rec.set("tm."+sys+".retries_per_tx", a.aborts/a.commits, n)
		rec.set("tm."+sys+".wasted_barrier_share", a.wasted/a.barriers, n)
		rec.set("tm."+sys+".tx_time_share", a.txNs/a.threadNs, n)
		rec.set("tm."+sys+".cm_wait_share", a.cmNs/a.threadNs, n)
	}
	rec.set("harness.make_s", makeS, 1)
	rec.set("harness.arena_setup_s", median(stage), len(stage))
	rec.set("harness.system_new_ms", median(sysNew)*1e3, len(sysNew))
	rec.set("harness.verify_s", median(verify), len(verify))
	rec.set("trace.overhead_share", (traced-untraced)/untraced, len(cells[0].tracedWall))
}
