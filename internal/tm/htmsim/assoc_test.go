package htmsim

import (
	"testing"

	"github.com/stamp-go/stamp/internal/mem"
	"github.com/stamp-go/stamp/internal/thread"
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

// TestCapacityIsTheL1: Table V's L1 holds 2048 distinct lines, four per
// set, and a line both read and written takes one way, not two. So a
// transaction that loads and stores 1100 consecutive lines (at most three
// per set), or loads 2048 of them (four per set), fits: htm-lazy must not
// take a capacity abort and htm-eager must not spill to signatures. An
// early-released line gives its way back: reading and releasing six lines
// of one set fits too.
func TestCapacityIsTheL1(t *testing.T) {
	for _, c := range []struct {
		name    string
		lines   int
		stride  int // lines between consecutive accesses
		store   bool
		release bool
	}{
		{"1100-read-written", 1100, 1, true, false},
		{"2048-read", capacityLines, 1, false, false},
		{"6-released-one-set", 6, capacitySets, false, true},
	} {
		body := func(base mem.Addr) func(tx tm.Tx) {
			return func(tx tm.Tx) {
				for i := 0; i < c.lines; i++ {
					a := base + mem.Addr(i*c.stride*mem.WordsPerLine)
					if v := tx.Load(a); c.store {
						tx.Store(a, v+1)
					}
					if c.release {
						tx.EarlyRelease(a)
					}
				}
			}
		}
		cfg := func(arena *mem.Arena) tm.Config {
			return tm.Config{Arena: arena, Threads: 1, EnableEarlyRelease: c.release}
		}
		t.Run(c.name+"/htm-lazy", func(t *testing.T) {
			arena := mem.NewArena(1 << 16)
			base := arena.AllocLines(c.lines * c.stride * mem.WordsPerLine)
			sys, err := NewLazy(cfg(arena))
			if err != nil {
				t.Fatal(err)
			}
			sys.Thread(0).Atomic(body(base))
			if causes := sys.Stats().AbortCauses(); causes[tm.CauseHTMCapacity] != 0 {
				t.Fatalf("%d lines overflowed the L1: %v", c.lines, causes)
			}
		})
		t.Run(c.name+"/htm-eager", func(t *testing.T) {
			arena := mem.NewArena(1 << 16)
			base := arena.AllocLines(c.lines * c.stride * mem.WordsPerLine)
			sys, err := NewEager(cfg(arena))
			if err != nil {
				t.Fatal(err)
			}
			sys.Thread(0).Atomic(func(tx tm.Tx) {
				body(base)(tx)
				if sys.Txs[0].overflowed.Load() {
					t.Errorf("%d lines spilled to signatures", c.lines)
				}
			})
		})
	}
}

// TestEagerOverflowCountsEveryLine: past the L1's 2048 lines an eager
// transaction runs on its signatures, but its line sets still record every
// line — they grow — so LineCounts, and with it Table VI's set sizes, stay
// exact. A second thread runs beside it on lines of its own.
func TestEagerOverflowCountsEveryLine(t *testing.T) {
	const lines = 5000
	arena := mem.NewArena(1 << 16)
	base := arena.AllocLines(lines * mem.WordsPerLine)
	other := arena.AllocLines(64 * mem.WordsPerLine)
	sys, err := NewEager(tm.Config{Arena: arena, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	thread.NewTeam(2).Run(func(tid int) {
		th := sys.Thread(tid)
		if tid == 1 {
			for i := 0; i < 200; i++ {
				th.Atomic(func(tx tm.Tx) {
					a := other + mem.Addr(i%64*mem.WordsPerLine)
					tx.Store(a, tx.Load(a)+1)
				})
			}
			return
		}
		th.Atomic(func(tx tm.Tx) {
			for i := 0; i < lines; i++ {
				a := base + mem.Addr(i*mem.WordsPerLine)
				if v := tx.Load(a); i%2 == 0 {
					tx.Store(a, v+1)
				}
			}
			if !sys.Txs[0].overflowed.Load() {
				t.Errorf("%d lines did not spill to signatures", lines)
			}
		})
	})
	if r, w, _ := sys.Txs[0].LineCounts(); r != lines || w != lines/2 {
		t.Fatalf("line counts %d read, %d written; want %d, %d", r, w, lines, lines/2)
	}
	for i := 0; i < lines; i++ {
		if got, want := arena.Load(base+mem.Addr(i*mem.WordsPerLine)), uint64(1-i%2); got != want {
			t.Fatalf("line %d holds %d, want %d", i, got, want)
		}
	}
}
