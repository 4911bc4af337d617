// Package yada implements STAMP's yada benchmark (Yet Another Delaunay
// Application): Ruppert-style Delaunay mesh refinement. Each work item pops
// a skinny triangle from the shared queue, carves the Bowyer–Watson cavity
// of its circumcenter (or of a boundary-segment midpoint when the
// circumcenter would encroach), retriangulates, and queues any new skinny
// triangles — all as one transaction. Transactions are long, read and write
// sets large, essentially all execution time is transactional, and
// contention is moderate.
package yada

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"github.com/stamp-go/stamp/internal/container"
	"github.com/stamp-go/stamp/internal/mem"
	"github.com/stamp-go/stamp/internal/rng"
	"github.com/stamp-go/stamp/internal/thread"
	"github.com/stamp-go/stamp/internal/tm"
)

// Atomic-block call sites, registered once for per-block statistics
// attribution (tm.Stats.Blocks).
var (
	blkPopWork = tm.NewBlock("yada/pop-work")
	blkRefine  = tm.NewBlock("yada/refine")
)

// Config mirrors the Table IV arguments: -a (minimum angle) and the input
// mesh, which we generate: Elements approximates the element count of the
// original input files (633.2 has 1264, ttimeu10000.2 has 19998).
type Config struct {
	MinAngle float64 // -a
	Elements int     // target initial element count (points ~ Elements/2)
	Seed     uint64

	// GrowthCap bounds total inserted points as a multiple of the initial
	// point count (safety net guaranteeing termination; 0 means 16x).
	GrowthCap int
}

// App is one yada instance.
type App struct {
	cfg      Config
	initPts  []Point
	initTris [][3]int32
	boundary []uint64 // initial boundary segment keys, ascending

	ms   mesh
	init int // initial point count

	// triangle registry for Verify: initial + per-thread created.
	initTriAddrs []mem.Addr
	created      [][]mem.Addr
	skipped      atomic.Int64 // work items dropped by safety guards
	capped       atomic.Bool  // growth cap reached

	ran bool
}

// New generates the input mesh: random interior points plus the four unit-
// square corners, Delaunay-triangulated; the square's hull edges are the
// boundary segments.
func New(cfg Config) *App {
	if cfg.MinAngle <= 0 {
		cfg.MinAngle = 20
	}
	if cfg.Elements < 8 {
		cfg.Elements = 8
	}
	if cfg.GrowthCap <= 0 {
		cfg.GrowthCap = 16
	}
	a := &App{cfg: cfg}
	r := rng.New(cfg.Seed ^ 0x79616461)
	nPts := cfg.Elements/2 + 2
	pts := []Point{{0, 0}, {1, 0}, {0, 1}, {1, 1}}
	for len(pts) < nPts {
		pts = append(pts, Point{
			X: 0.02 + 0.96*r.Float64(),
			Y: 0.02 + 0.96*r.Float64(),
		})
	}
	a.initPts = pts
	a.initTris = triangulate(pts)
	// Boundary segments: edges adjacent to exactly one triangle.
	edgeUse := map[uint64]int{}
	for _, t := range a.initTris {
		edgeUse[edgeKey(t[0], t[1])]++
		edgeUse[edgeKey(t[1], t[2])]++
		edgeUse[edgeKey(t[2], t[0])]++
	}
	for k, n := range edgeUse {
		if n == 1 {
			a.boundary = append(a.boundary, k)
		}
	}
	slices.Sort(a.boundary) // Setup inserts them in this order
	return a
}

// Name implements apps.App.
func (a *App) Name() string { return "yada" }

// InitialElements returns the generated element count (for tests).
func (a *App) InitialElements() int { return len(a.initTris) }

// maxPoints is the refinement safety cap.
func (a *App) maxPoints() int { return len(a.initPts) * a.cfg.GrowthCap }

// ArenaWords implements apps.App: sized for the growth cap plus allocator
// churn (dead triangles and edge-list nodes are never reused).
func (a *App) ArenaWords() int {
	mp := a.maxPoints()
	churn := 64 * mp // triangles + edge records + hash nodes + heap growth
	return 2*mp + 2 + churn + 1<<16
}

// Setup implements apps.App: stages the initial mesh and seeds the work
// queue with every skinny triangle.
func (a *App) Setup(ar *mem.Arena) {
	d := mem.Direct{A: ar}
	mp := a.maxPoints()
	a.ms = mesh{
		ptsBase:   ar.Alloc(2 * mp),
		maxPoints: mp,
		edges:     container.NewHashtable(d, max(mp/2, 64)),
		segments:  container.NewHashtable(d, 256),
		work:      container.NewHeap(d, max(len(a.initTris), 16)),
	}
	for i, p := range a.initPts {
		a.ms.setPoint(d, int32(i), p)
	}
	a.init = len(a.initPts)
	a.initTriAddrs = a.initTriAddrs[:0]
	for _, t := range a.initTris {
		addr := a.ms.newTriangle(d, t[0], t[1], t[2])
		a.initTriAddrs = append(a.initTriAddrs, addr)
		ang := minAngleDeg(a.initPts[t[0]], a.initPts[t[1]], a.initPts[t[2]])
		if ang < a.cfg.MinAngle {
			a.ms.work.Push(d, badnessKey(ang), uint64(addr))
		}
	}
	for _, k := range a.boundary {
		a.ms.segments.Insert(d, k, 1)
	}
	a.skipped.Store(0)
	a.capped.Store(false)
	a.ran = false
}

// cavityGuard bounds cavity growth against numerical blowup.
const cavityGuard = 256

// Run implements apps.App.
func (a *App) Run(sys tm.System, team *thread.Team) {
	a.created = make([][]mem.Addr, team.N())
	// Worker tid numbers its k-th new point init + tid + k·N through a
	// cursor on a line of its own, so refines share no cursor to conflict
	// on, and one worker numbers points as a single cursor would.
	a.ms.cursors = make([]mem.Addr, team.N())
	for tid := range a.ms.cursors {
		a.ms.cursors[tid] = sys.Arena().AllocLines(1)
		mem.Direct{A: sys.Arena()}.Store(a.ms.cursors[tid], uint64(a.init+tid))
	}
	team.Run(func(tid int) {
		th := sys.Thread(tid)
		for {
			var triAddr mem.Addr
			have := false
			th.AtomicAt(blkPopWork, func(tx tm.Tx) {
				_, v, ok := a.ms.work.Pop(tx)
				have = ok
				triAddr = mem.Addr(v)
			})
			if !have {
				return
			}
			a.refine(th, tid, triAddr)
		}
	})
	a.ran = true
}

// refine processes one skinny triangle as a single transaction.
func (a *App) refine(th tm.Thread, tid int, triAddr mem.Addr) {
	type newTri struct {
		addr mem.Addr
		bad  float64 // < MinAngle if skinny, else >= MinAngle
	}
	var producedAddrs []mem.Addr

	th.AtomicAt(blkRefine, func(tx tm.Tx) {
		producedAddrs = producedAddrs[:0]
		ms := &a.ms
		if !ms.alive(tx, triAddr) {
			return // stale work item
		}
		v0, v1, v2 := ms.verts(tx, triAddr)
		p0, p1, p2 := ms.point(tx, v0), ms.point(tx, v1), ms.point(tx, v2)
		if minAngleDeg(p0, p1, p2) >= a.cfg.MinAngle {
			return
		}
		if int(tx.Load(ms.cursors[tid])) >= ms.maxPoints-4 {
			a.capped.Store(true)
			return // growth cap: stop refining, keep the mesh consistent
		}
		center, ok := circumcenter(p0, p1, p2)
		if !ok {
			a.skipped.Add(1)
			return
		}

		// Carve the cavity of the insertion point; if the point encroaches
		// a boundary segment on the cavity rim, switch to splitting that
		// segment instead (Ruppert's rule) and recompute the cavity.
		insertion := center
		startTri := triAddr
		var splitSeg uint64
		for attempt := 0; ; attempt++ {
			cav, rim, encroached, encOwner, ok := a.carve(tx, startTri, insertion, splitSeg)
			if !ok {
				a.skipped.Add(1)
				return
			}
			if encroached != 0 && attempt == 0 {
				// Replace the insertion with the segment midpoint and grow
				// the next cavity from the segment's own triangle.
				u := int32(uint32(encroached >> 32))
				w := int32(uint32(encroached))
				pu, pw := ms.point(tx, u), ms.point(tx, w)
				insertion = Point{(pu.X + pw.X) / 2, (pu.Y + pw.Y) / 2}
				splitSeg = encroached
				startTri = encOwner
				continue
			}
			if encroached != 0 {
				// Midpoint still encroaches another segment: drop the item
				// (full Ruppert recurses; the cap keeps us terminating).
				a.skipped.Add(1)
				return
			}
			// Commit point: insert, kill the cavity, fan the rim.
			pi := ms.addPoint(tx, ms.cursors[tid], insertion)
			for _, t := range cav {
				ms.killTriangle(tx, t)
			}
			if splitSeg != 0 {
				u := int32(uint32(splitSeg >> 32))
				w := int32(uint32(splitSeg))
				ms.segments.Remove(tx, splitSeg)
				ms.segments.Insert(tx, edgeKey(u, pi), 1)
				ms.segments.Insert(tx, edgeKey(w, pi), 1)
			}
			for _, e := range rim {
				nt := ms.newTriangle(tx, e[0], e[1], pi)
				producedAddrs = append(producedAddrs, nt)
				ang := minAngleDeg(ms.point(tx, e[0]), ms.point(tx, e[1]), insertion)
				if ang < a.cfg.MinAngle {
					ms.work.Push(tx, badnessKey(ang), uint64(nt))
				}
			}
			return
		}
	})
	a.created[tid] = append(a.created[tid], producedAddrs...)
}

// carve collects the cavity of the insertion point starting from start:
// live triangles whose circumcircle contains it, grown across non-segment
// edges. It returns the cavity, its oriented rim edges (excluding
// splitSeg, whose midpoint is the insertion point), the key and owning
// triangle of an encroached rim segment (0 if none), and ok=false on a
// guard violation.
func (a *App) carve(tx tm.Tx, start mem.Addr, p Point, splitSeg uint64) (cav []mem.Addr, rim [][2]int32, encroached uint64, encOwner mem.Addr, ok bool) {
	ms := &a.ms
	inCav := map[mem.Addr]bool{start: true}
	frontier := []mem.Addr{start}
	cav = []mem.Addr{start}
	for len(frontier) > 0 {
		t := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		v0, v1, v2 := ms.verts(tx, t)
		edges := [3][2]int32{{v0, v1}, {v1, v2}, {v2, v0}}
		for _, e := range edges {
			key := edgeKey(e[0], e[1])
			isSeg := ms.segments.Contains(tx, key)
			var other mem.Addr
			if !isSeg {
				other = ms.neighborAcross(tx, key, t)
			}
			if other != mem.Nil && inCav[other] {
				continue // internal edge
			}
			expand := false
			if other != mem.Nil && ms.alive(tx, other) {
				o0, o1, o2 := ms.verts(tx, other)
				q0, q1, q2 := ms.point(tx, o0), ms.point(tx, o1), ms.point(tx, o2)
				expand = inCircumcircle(q0, q1, q2, p)
			}
			if expand {
				inCav[other] = true
				cav = append(cav, other)
				frontier = append(frontier, other)
				if len(cav) > cavityGuard {
					return nil, nil, 0, mem.Nil, false
				}
				continue
			}
			// Rim edge. Encroachment applies to boundary segments only.
			if isSeg && key != splitSeg {
				pu, pw := ms.point(tx, e[0]), ms.point(tx, e[1])
				if encroaches(pu, pw, p) {
					return cav, nil, key, t, true
				}
			}
			if key == splitSeg {
				continue // the split segment is replaced by its halves
			}
			// Star-shapedness: the new triangle (e0, e1, p) must wind ccw.
			if orient(ms.point(tx, e[0]), ms.point(tx, e[1]), p) <= geomEps {
				return nil, nil, 0, mem.Nil, false
			}
			rim = append(rim, e)
		}
	}
	return cav, rim, 0, mem.Nil, true
}

// Verify implements apps.App: the refined mesh must remain conforming
// (every edge borders one or two live triangles; single-sided edges are
// exactly the boundary segments), cover the unit square, wind consistently,
// and contain no skinny triangle (unless the growth cap or a numeric guard
// fired, which the oracle reports as a tolerated-but-counted condition).
func (a *App) Verify(ar *mem.Arena) error {
	if !a.ran {
		return fmt.Errorf("yada: Run was never executed")
	}
	d := mem.Direct{A: ar}
	ms := &a.ms
	all := append([]mem.Addr(nil), a.initTriAddrs...)
	for _, list := range a.created {
		all = append(all, list...)
	}
	edgeUse := map[uint64]int{}
	area := 0.0
	skinny := 0
	aliveCount := 0
	for _, t := range all {
		if !ms.alive(d, t) {
			continue
		}
		aliveCount++
		v0, v1, v2 := ms.verts(d, t)
		p0, p1, p2 := ms.point(d, v0), ms.point(d, v1), ms.point(d, v2)
		o := orient(p0, p1, p2)
		if o <= 0 {
			return fmt.Errorf("yada: triangle %d is degenerate or flipped (orient %g)", t, o)
		}
		area += o / 2
		edgeUse[edgeKey(v0, v1)]++
		edgeUse[edgeKey(v1, v2)]++
		edgeUse[edgeKey(v2, v0)]++
		if minAngleDeg(p0, p1, p2) < a.cfg.MinAngle {
			skinny++
		}
	}
	if aliveCount == 0 {
		return fmt.Errorf("yada: no live triangles")
	}
	for key, n := range edgeUse {
		isSeg := ms.segments.Contains(d, key)
		switch {
		case n > 2:
			return fmt.Errorf("yada: edge %#x borders %d triangles", key, n)
		case n == 2 && isSeg:
			return fmt.Errorf("yada: boundary segment %#x is interior", key)
		case n == 1 && !isSeg:
			return fmt.Errorf("yada: interior edge %#x has one triangle", key)
		}
	}
	if math.Abs(area-1.0) > 1e-6 {
		return fmt.Errorf("yada: mesh area %.9f != 1 (coverage broken)", area)
	}
	if skinny > 0 && !a.capped.Load() && a.skipped.Load() == 0 {
		return fmt.Errorf("yada: %d skinny triangles remain without a cap/guard event", skinny)
	}
	if a.FinalPoints(ar) == a.init && skinny == 0 && len(a.initTris) > 0 {
		// No refinement at all is only acceptable if the input had no
		// skinny triangles to begin with.
		for _, t := range a.initTris {
			if minAngleDeg(a.initPts[t[0]], a.initPts[t[1]], a.initPts[t[2]]) < a.cfg.MinAngle {
				return fmt.Errorf("yada: input had skinny triangles but no points were added")
			}
		}
	}
	return nil
}

// FinalPoints returns the refined point count: the initial points and those
// the workers' cursors handed out.
func (a *App) FinalPoints(ar *mem.Arena) int {
	n := a.init
	for tid, c := range a.ms.cursors {
		n += (int(mem.Direct{A: ar}.Load(c)) - a.init - tid) / len(a.ms.cursors)
	}
	return n
}

// Skipped returns the number of guard-dropped work items (for tests).
func (a *App) Skipped() int { return int(a.skipped.Load()) }

// Capped reports whether the growth cap fired (for tests).
func (a *App) Capped() bool { return a.capped.Load() }
