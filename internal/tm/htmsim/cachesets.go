package htmsim

import "github.com/stamp-go/stamp/internal/mem"

// The simulated HTMs' speculative buffer is Table V's L1: 64 KB, 4-way
// set-associative, 32 B lines => 2048 lines in 512 sets of 4 ways. A
// transaction overflows when more than capacityAssoc of its distinct lines
// map to one set — which is how the paper's bayes and labyrinth+ footprints
// (~450-780 lines) overflow the L1 long before filling it. A line both read
// and written takes one way, and the ways cap a footprint at capacityLines,
// so the setTracker is the whole capacity rule.
const (
	capacityLines = 2048
	capacityAssoc = 4
	capacitySets  = capacityLines / capacityAssoc
)

// setTracker models the set-associative structure of the speculative
// buffer. A transaction whose footprint puts more than capacityAssoc
// distinct lines into one set cannot keep them all buffered and must take
// its system's overflow path.
type setTracker struct {
	counts [capacitySets]uint16
}

// add records a newly tracked line; it reports false when the line's set is
// already full (capacity overflow).
func (s *setTracker) add(l mem.Line) bool {
	i := uint32(l) % capacitySets
	if s.counts[i] >= capacityAssoc {
		return false
	}
	s.counts[i]++
	return true
}

// drop releases a tracked line (early release).
func (s *setTracker) drop(l mem.Line) {
	i := uint32(l) % capacitySets
	if s.counts[i] > 0 {
		s.counts[i]--
	}
}

// reset clears all set counters for the next transaction.
func (s *setTracker) reset() { clear(s.counts[:]) }
