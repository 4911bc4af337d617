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
// after a clear of the list as after a sweep of the whole table.
type lineSet struct {
	slots []atomic.Uint32
	mask  uint32
	count int      // live entries; owner-only
	used  []uint32 // slots filled from empty since clear; owner-only
}

func newLineSet(capacity int) *lineSet {
	n := uint32(4)
	for int(n) < 2*capacity {
		n <<= 1
	}
	return &lineSet{slots: make([]atomic.Uint32, n), mask: n - 1, used: make([]uint32, 0, n)}
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
				s.used = append(s.used, i) // a tombstone's slot is listed already
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

// remove deletes l if present (early release). Owner-only.
func (s *lineSet) remove(l mem.Line) {
	i := s.hash(l)
	for probes := uint32(0); probes <= s.mask; probes++ {
		v := s.slots[i].Load()
		switch v {
		case uint32(l):
			s.slots[i].Store(tombstoneSlot)
			s.count--
			return
		case emptySlot:
			return
		}
		i = (i + 1) & s.mask
	}
}

// clear empties the set (including tombstones): only the slots on used can
// be non-empty. Owner-only.
func (s *lineSet) clear() {
	for _, i := range s.used {
		s.slots[i].Store(emptySlot)
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
