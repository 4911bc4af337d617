package htmsim

import (
	"testing"

	"github.com/stamp-go/stamp/internal/mem"
	"github.com/stamp-go/stamp/internal/tm"
)

func TestSetTrackerWays(t *testing.T) {
	s := newSetTracker(tm.Config{CapacityLines: 16, CapacityAssoc: 2}) // 8 sets, 2 ways
	// Lines mapping to the same set: multiples of 8.
	if !s.add(8) || !s.add(16) {
		t.Fatal("first two ways must fit")
	}
	if s.add(24) {
		t.Fatal("third way in one set must overflow")
	}
	s.drop(8)
	if !s.add(24) {
		t.Fatal("way freed by drop not reusable")
	}
	s.reset()
	if !s.add(8) || !s.add(16) {
		t.Fatal("reset did not clear counters")
	}
}

func TestSetTrackerDisabled(t *testing.T) {
	s := newSetTracker(tm.Config{CapacityLines: 16, CapacityAssoc: 0})
	for l := mem.Line(0); l < 1000; l++ {
		if !s.add(l) {
			t.Fatal("disabled tracker must never overflow")
		}
	}
	s.drop(1) // must not panic
	s.reset()
}

// TestLazyAssociativityOverflow: a transaction whose lines collide in one
// cache set must overflow (serialize) even though its total footprint is
// far below CapacityLines — the paper's bayes/labyrinth+ behaviour.
func TestLazyAssociativityOverflow(t *testing.T) {
	arena := mem.NewArena(1 << 20)
	sys, err := NewLazy(tm.Config{
		Arena: arena, Threads: 1,
		CapacityLines: 1024, CapacityAssoc: 2, // 512 sets, 2 ways
	})
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
		for i := 0; i < 6; i++ { // 6 lines, one set, 2 ways => overflow
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
	sys, err := NewEager(tm.Config{
		Arena: arena, Threads: 1,
		CapacityLines: 1024, CapacityAssoc: 2,
	})
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
