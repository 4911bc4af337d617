package htmsim

import (
	"testing"

	"github.com/stamp-go/stamp/internal/mem"
	"github.com/stamp-go/stamp/internal/tm"
)

func TestSetTrackerWays(t *testing.T) {
	var s setTracker
	// Lines capacitySets apart share one set.
	same := func(i int) mem.Line { return mem.Line(3 + i*capacitySets) }
	for i := 0; i < capacityAssoc; i++ {
		if !s.add(same(i)) {
			t.Fatalf("way %d of %d must fit", i+1, capacityAssoc)
		}
	}
	if s.add(same(capacityAssoc)) {
		t.Fatal("one line past the ways in one set must overflow")
	}
	if !s.add(4) {
		t.Fatal("a full set must not block its neighbour")
	}
	s.drop(same(0))
	if !s.add(same(capacityAssoc)) {
		t.Fatal("way freed by drop not reusable")
	}
	s.reset()
	for i := 0; i < capacityAssoc; i++ {
		if !s.add(same(i)) {
			t.Fatal("reset did not clear counters")
		}
	}
}

// TestLazyAssociativityOverflow: a transaction whose lines collide in one
// cache set must overflow (serialize) even though its total footprint is
// far below capacityLines — the paper's bayes/labyrinth+ behaviour.
func TestLazyAssociativityOverflow(t *testing.T) {
	arena := mem.NewArena(1 << 20)
	sys, err := NewLazy(tm.Config{Arena: arena, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Allocate lines 512 apart so they all land in one set.
	step := 512 * mem.WordsPerLine
	if _, err := arena.Alloc(8*step+16), error(nil); err != nil {
		t.Fatal(err)
	}
	th := sys.Thread(0)
	th.Atomic(func(tx tm.Tx) {
		for i := 0; i < 6; i++ { // 6 lines, one set, 4 ways => overflow
			tx.Store(mem.Addr(4+i*step), uint64(i))
		}
	})
	for i := 0; i < 6; i++ {
		if got := arena.Load(mem.Addr(4 + i*step)); got != uint64(i) {
			t.Fatalf("word %d = %d after overflow commit", i, got)
		}
	}
	if sys.Stats().Total.Aborts == 0 {
		t.Fatal("expected at least one overflow abort before serial retry")
	}
}

// TestEagerAssociativitySpills: the eager HTM must switch to signature mode
// on an associativity conflict and still commit correctly.
func TestEagerAssociativitySpills(t *testing.T) {
	arena := mem.NewArena(1 << 20)
	sys, err := NewEager(tm.Config{Arena: arena, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	step := 512 * mem.WordsPerLine
	arena.Alloc(8*step + 16)
	th := sys.Thread(0)
	th.Atomic(func(tx tm.Tx) {
		for i := 0; i < 6; i++ {
			tx.Store(mem.Addr(4+i*step), uint64(i)+100)
		}
		if !sys.Txs[0].overflowed.Load() {
			t.Error("6 lines in one 4-way set did not spill to signatures")
		}
	})
	for i := 0; i < 6; i++ {
		if got := arena.Load(mem.Addr(4 + i*step)); got != uint64(i)+100 {
			t.Fatalf("word %d = %d after sig-mode commit", i, got)
		}
	}
	if sys.Txs[0].overflowed.Load() {
		t.Fatal("overflow flag must clear after commit")
	}
}
