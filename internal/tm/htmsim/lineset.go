// Package htmsim implements software simulations of the paper's two
// hardware TM systems: a lazy-versioning TCC-style HTM and an eager-
// versioning LogTM-style HTM. "Hardware" here means: conflict detection at
// 32-byte cache-line granularity, a bounded speculative capacity with the
// paper's overflow behaviours (serialized execution for the lazy HTM, Bloom
// signatures with false conflicts for the eager HTM), implicit barriers
// (early release actually matters), and no software read/write-buffer
// overhead models beyond what the simulation itself costs.
package htmsim

import (
	"iter"
	"sync/atomic"

	"github.com/stamp-go/stamp/internal/mem"
)

const (
	emptySlot     = 0          // line 0 is never allocated (word 0 is reserved)
	tombstoneSlot = 0xffffffff // deleted marker (early release)
)

// lineSet is an open-addressing hash set of cache lines, fixed-size while
// peers may probe it, with single-writer / multi-reader atomicity: the
// owning transaction inserts and removes, while peers probe it concurrently
// during conflict detection — htm-lazy's committers, and htm-eager's
// barriers under the line's claim lock. All slot accesses are atomic, so
// probes are race-free; a probe that overlaps an insert may miss it, which
// the lazy HTM's commit epoch protocol compensates for (see lazy.go) and
// the eager HTM's claim lock rules out (see eager.go).
//
// used lists every slot an insert has taken from empty since the last
// clear, so clear costs the footprint, not the table: every slot off the
// list is already empty, and a concurrent probe sees the same empty slots
// after a clear of the list as after a sweep of the whole table. listed
// marks the slots on used, so a slot a remove emptied is listed once
// however often it is filled again.
//
// remove leaves a tombstone in its slot i only if a live line later in i's
// run (the non-empty slots after i, up to the next empty one) has its home
// slot at or before i, so that a probe for it reads i. Otherwise it empties
// i and the run of tombstones just before it; else a transaction that
// inserts and early-releases more lines than there are slots would leave no
// slot empty, and every probe would walk the whole table. No live line
// moves, so emptying is safe without a lock: a live line ends an unbroken
// run of non-empty slots from its home slot (inserts stop at the first
// empty one), and a probe for it reads only that run. No such run reaches
// i, nor the tombstones before it (a run through one would cross i). A
// probe for the removed line may miss it, as it may miss a line the owner
// removes by tombstone.
type lineSet struct {
	slots  []atomic.Uint32
	mask   uint32
	count  int      // live entries; owner-only
	used   []uint32 // slots filled from empty since clear; owner-only
	listed []bool   // listed[i]: slot i is on used; owner-only
}

func newLineSet(capacity int) *lineSet {
	n := uint32(4)
	for int(n) < 2*capacity {
		n <<= 1
	}
	return &lineSet{slots: make([]atomic.Uint32, n), mask: n - 1,
		used: make([]uint32, 0, n), listed: make([]bool, n)}
}

func (s *lineSet) hash(l mem.Line) uint32 {
	x := uint32(l) * 2654435761
	return (x ^ x>>16) & s.mask
}

// insert adds l; reports whether it was new. Owner-only. Returns ok=false
// when the set is full (capacity overflow).
func (s *lineSet) insert(l mem.Line) (added, ok bool) {
	i := s.hash(l)
	free := uint32(0xffffffff) // first tombstone seen, if any
	for probes := uint32(0); probes <= s.mask; probes++ {
		v := s.slots[i].Load()
		switch v {
		case uint32(l):
			return false, true
		case emptySlot:
			if free == 0xffffffff {
				free = i
				if !s.listed[i] { // a slot remove emptied may be listed already
					s.listed[i] = true
					s.used = append(s.used, i)
				}
			}
			s.slots[free].Store(uint32(l))
			s.count++
			return true, true
		case tombstoneSlot:
			if free == 0xffffffff {
				free = i
			}
		}
		i = (i + 1) & s.mask
	}
	if free != 0xffffffff {
		s.slots[free].Store(uint32(l))
		s.count++
		return true, true
	}
	return false, false
}

// contains probes for l. Safe for concurrent use against the owner.
func (s *lineSet) contains(l mem.Line) bool {
	i := s.hash(l)
	for probes := uint32(0); probes <= s.mask; probes++ {
		v := s.slots[i].Load()
		switch v {
		case uint32(l):
			return true
		case emptySlot:
			return false
		}
		i = (i + 1) & s.mask
	}
	return false
}

// remove deletes l if present (early release), emptying its slot and the
// tombstones before it when no live line probes through the slot (see
// lineSet). Owner-only.
func (s *lineSet) remove(l mem.Line) {
	i := s.hash(l)
	for probes := uint32(0); probes <= s.mask; probes++ {
		switch s.slots[i].Load() {
		case uint32(l):
			s.count--
			if s.probedThrough(i) {
				s.slots[i].Store(tombstoneSlot)
				return
			}
			s.slots[i].Store(emptySlot)
			for j := (i - 1) & s.mask; j != i && s.slots[j].Load() == tombstoneSlot; j = (j - 1) & s.mask {
				s.slots[j].Store(emptySlot)
			}
			return
		case emptySlot:
			return
		}
		i = (i + 1) & s.mask
	}
}

// probedThrough reports whether a live line after slot i in its run has its
// home slot at or before i, so that a probe for it reads slot i.
func (s *lineSet) probedThrough(i uint32) bool {
	for d := uint32(1); d <= s.mask; d++ {
		k := (i + d) & s.mask
		v := s.slots[k].Load()
		if v == emptySlot {
			return false
		}
		if v != tombstoneSlot && (k-s.hash(mem.Line(v)))&s.mask >= d {
			return true
		}
	}
	return false
}

// clear empties the set (including tombstones): only the slots on used can
// be non-empty. Owner-only.
func (s *lineSet) clear() {
	for _, i := range s.used {
		s.slots[i].Store(emptySlot)
		s.listed[i] = false
	}
	s.used = s.used[:0]
	s.count = 0
}

// len returns the number of live entries. Owner-only.
func (s *lineSet) len() int { return s.count }

// all yields every live entry: only the slots on used can hold one.
// Owner-only.
func (s *lineSet) all() iter.Seq[mem.Line] {
	return func(yield func(mem.Line) bool) {
		for _, i := range s.used {
			if v := s.slots[i].Load(); v != emptySlot && v != tombstoneSlot && !yield(mem.Line(v)) {
				return
			}
		}
	}
}

// grow doubles the table, keeping the live entries. Owner-only, and only
// while no other goroutine probes the set (htm-eager's overflow mode).
func (s *lineSet) grow() {
	g := newLineSet(len(s.slots))
	for l := range s.all() {
		g.insert(l)
	}
	*s = *g
}
