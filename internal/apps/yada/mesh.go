package yada

import (
	"github.com/stamp-go/stamp/internal/container"
	"github.com/stamp-go/stamp/internal/mem"
	"github.com/stamp-go/stamp/internal/tm"
)

// Arena mesh representation.
//
// Points live in a flat array of (x, y) float64 pairs, one append cursor
// per worker; triangle records are [v0, v1, v2, alive]; undirected edges map
// (through a transactional hash table) to a 2-slot record of adjacent
// triangle addresses; boundary segments are a hash set of edge keys.

const (
	triV0    = 0
	triV1    = 1
	triV2    = 2
	triAlive = 3
	triWords = 4

	edgeT1    = 0
	edgeT2    = 1
	edgeWords = 2
)

// mesh bundles the arena handles; the struct itself is immutable during Run.
type mesh struct {
	ptsBase   mem.Addr   // capacity*2 float64 words
	cursors   []mem.Addr // worker tid's next point index, one line each
	maxPoints int

	edges    container.Hashtable // edgeKey -> edge record addr
	segments container.Hashtable // edgeKey -> 1 (boundary segments)
	work     container.Heap      // badness -> triangle addr
}

func edgeKey(u, w int32) uint64 {
	if u > w {
		u, w = w, u
	}
	return uint64(uint32(u))<<32 | uint64(uint32(w))
}

// addPoint appends a point through cursor cur, which steps over the other
// workers' indices, and returns its index.
func (ms *mesh) addPoint(m tm.Mem, cur mem.Addr, p Point) int32 {
	idx := m.Load(cur)
	m.Store(cur, idx+uint64(len(ms.cursors)))
	if int(idx) >= ms.maxPoints {
		panic("yada: point capacity exceeded (raise the refinement cap)")
	}
	ms.setPoint(m, int32(idx), p)
	return int32(idx)
}

// setPoint writes point i's coordinates.
func (ms *mesh) setPoint(m tm.Mem, i int32, p Point) {
	tm.StoreF64(m, ms.ptsBase+mem.Addr(2*int(i)), p.X)
	tm.StoreF64(m, ms.ptsBase+mem.Addr(2*int(i)+1), p.Y)
}

// point reads point i's coordinates.
func (ms *mesh) point(m tm.Mem, i int32) Point {
	return Point{
		X: tm.LoadF64(m, ms.ptsBase+mem.Addr(2*int(i))),
		Y: tm.LoadF64(m, ms.ptsBase+mem.Addr(2*int(i)+1)),
	}
}

// newTriangle allocates a live triangle record and registers its three
// edges.
func (ms *mesh) newTriangle(m tm.Mem, v0, v1, v2 int32) mem.Addr {
	t := m.Alloc(triWords)
	m.Store(t+triV0, uint64(uint32(v0)))
	m.Store(t+triV1, uint64(uint32(v1)))
	m.Store(t+triV2, uint64(uint32(v2)))
	m.Store(t+triAlive, 1)
	ms.linkEdge(m, edgeKey(v0, v1), t)
	ms.linkEdge(m, edgeKey(v1, v2), t)
	ms.linkEdge(m, edgeKey(v2, v0), t)
	return t
}

func (ms *mesh) verts(m tm.Mem, t mem.Addr) (v0, v1, v2 int32) {
	return int32(uint32(m.Load(t + triV0))),
		int32(uint32(m.Load(t + triV1))),
		int32(uint32(m.Load(t + triV2)))
}

func (ms *mesh) alive(m tm.Mem, t mem.Addr) bool { return m.Load(t+triAlive) == 1 }

// linkEdge records t as adjacent to the edge, creating the record on first
// use. A third adjacency is a conformity violation and restarts the
// transaction defensively.
func (ms *mesh) linkEdge(m tm.Mem, key uint64, t mem.Addr) {
	recA, ok := ms.edges.Get(m, key)
	var rec mem.Addr
	if !ok {
		rec = m.Alloc(edgeWords)
		m.Store(rec+edgeT1, 0)
		m.Store(rec+edgeT2, 0)
		ms.edges.Insert(m, key, uint64(rec))
	} else {
		rec = mem.Addr(recA)
	}
	switch {
	case m.Load(rec+edgeT1) == 0:
		m.Store(rec+edgeT1, uint64(t))
	case m.Load(rec+edgeT2) == 0:
		m.Store(rec+edgeT2, uint64(t))
	default:
		if tx, isTx := m.(tm.Tx); isTx {
			tx.Restart() // transient inconsistency under contention
		}
		panic("yada: edge with three adjacent triangles")
	}
}

// unlinkEdge removes t from the edge record, deleting the record once
// orphaned.
func (ms *mesh) unlinkEdge(m tm.Mem, key uint64, t mem.Addr) {
	recA, ok := ms.edges.Get(m, key)
	if !ok {
		return
	}
	rec := mem.Addr(recA)
	if mem.Addr(m.Load(rec+edgeT1)) == t {
		m.Store(rec+edgeT1, 0)
	}
	if mem.Addr(m.Load(rec+edgeT2)) == t {
		m.Store(rec+edgeT2, 0)
	}
	if m.Load(rec+edgeT1) == 0 && m.Load(rec+edgeT2) == 0 {
		ms.edges.Remove(m, key)
		m.Free(rec, edgeWords)
	}
}

// neighborAcross returns the live triangle sharing the edge with t, or nil.
func (ms *mesh) neighborAcross(m tm.Mem, key uint64, t mem.Addr) mem.Addr {
	recA, ok := ms.edges.Get(m, key)
	if !ok {
		return mem.Nil
	}
	rec := mem.Addr(recA)
	t1 := mem.Addr(m.Load(rec + edgeT1))
	t2 := mem.Addr(m.Load(rec + edgeT2))
	if t1 != t && t1 != mem.Nil {
		return t1
	}
	if t2 != t && t2 != mem.Nil {
		return t2
	}
	return mem.Nil
}

// killTriangle marks t dead and unlinks its edges.
func (ms *mesh) killTriangle(m tm.Mem, t mem.Addr) {
	v0, v1, v2 := ms.verts(m, t)
	m.Store(t+triAlive, 0)
	ms.unlinkEdge(m, edgeKey(v0, v1), t)
	ms.unlinkEdge(m, edgeKey(v1, v2), t)
	ms.unlinkEdge(m, edgeKey(v2, v0), t)
}

// badnessKey encodes a triangle's priority for the work heap: skinnier
// first (smaller key pops first).
func badnessKey(minAngle float64) uint64 {
	return uint64(minAngle * 1e6)
}
