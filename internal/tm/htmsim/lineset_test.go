package htmsim

import (
	"testing"
	"testing/quick"

	"github.com/stamp-go/stamp/internal/mem"
	"github.com/stamp-go/stamp/internal/rng"
	"github.com/stamp-go/stamp/internal/tm"
)

func TestLineSetInsertContains(t *testing.T) {
	s := newLineSet(64)
	for l := mem.Line(1); l <= 50; l++ {
		added, ok := s.insert(l)
		if !ok || !added {
			t.Fatalf("insert %d: added=%v ok=%v", l, added, ok)
		}
	}
	if s.len() != 50 {
		t.Fatalf("len = %d", s.len())
	}
	for l := mem.Line(1); l <= 50; l++ {
		if !s.contains(l) {
			t.Fatalf("missing %d", l)
		}
	}
	if s.contains(99) {
		t.Fatal("phantom member")
	}
	// Duplicate insert.
	if added, ok := s.insert(7); added || !ok {
		t.Fatalf("duplicate insert: added=%v ok=%v", added, ok)
	}
}

func TestLineSetRemoveTombstones(t *testing.T) {
	s := newLineSet(32)
	for l := mem.Line(1); l <= 30; l++ {
		s.insert(l)
	}
	for l := mem.Line(1); l <= 30; l += 2 {
		s.remove(l)
	}
	if s.len() != 15 {
		t.Fatalf("len = %d", s.len())
	}
	for l := mem.Line(1); l <= 30; l++ {
		want := l%2 == 0
		if s.contains(l) != want {
			t.Fatalf("contains(%d) = %v after removals", l, !want)
		}
	}
	// Reinsertion through tombstones must not duplicate.
	if added, _ := s.insert(2); added {
		t.Fatal("existing member re-added through tombstone probe")
	}
	if added, _ := s.insert(1); !added {
		t.Fatal("removed member not re-addable")
	}
}

func TestLineSetClear(t *testing.T) {
	s := newLineSet(16)
	for l := mem.Line(1); l <= 10; l++ {
		s.insert(l)
	}
	s.remove(3) // leave a tombstone
	s.clear()
	if s.len() != 0 {
		t.Fatalf("len after clear = %d", s.len())
	}
	for l := mem.Line(1); l <= 10; l++ {
		if s.contains(l) {
			t.Fatalf("clear left %d", l)
		}
	}
	if added, ok := s.insert(3); !added || !ok {
		t.Fatal("insert after clear failed")
	}
}

func TestLineSetFullReportsOverflow(t *testing.T) {
	s := newLineSet(2) // 4 slots
	inserted := 0
	for l := mem.Line(1); l <= 10; l++ {
		if _, ok := s.insert(l); ok {
			inserted++
		} else {
			break
		}
	}
	if inserted < 2 || inserted > 4 {
		t.Fatalf("inserted %d before overflow, expected 2..4", inserted)
	}
}

func TestLineSetModelProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		s := newLineSet(256)
		model := map[mem.Line]bool{}
		for i, op := range ops {
			l := mem.Line(op%200 + 1)
			switch i % 3 {
			case 0, 1:
				added, ok := s.insert(l)
				if !ok {
					return false // cannot overflow at this size
				}
				if added == model[l] {
					return false
				}
				model[l] = true
			case 2:
				s.remove(l)
				delete(model, l)
			}
			if s.contains(l) != model[l] {
				return false
			}
		}
		if s.len() != len(model) {
			return false
		}
		for l := range model {
			if !s.contains(l) {
				return false
			}
		}
		// all yields each live entry once, and grow keeps exactly them.
		yielded := map[mem.Line]bool{}
		for l := range s.all() {
			if !model[l] || yielded[l] {
				return false
			}
			yielded[l] = true
		}
		if len(yielded) != len(model) {
			return false
		}
		n := len(s.slots)
		s.grow()
		if len(s.slots) != 2*n || s.len() != len(model) {
			return false
		}
		for l := range s.all() {
			if !model[l] {
				return false
			}
		}
		for l := range model {
			if !s.contains(l) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestLineSetClearEmptiesEverySlot: clear resets only the slots inserts
// filled, so after any mix of inserts (through tombstones too), removes and
// clears, every slot of the table must read empty again. A clear that
// skips one filled slot leaves a stale line a committer can still find.
func TestLineSetClearEmptiesEverySlot(t *testing.T) {
	s := newLineSet(64)
	r := rng.New(1)
	for round := 0; round < 200; round++ {
		for i := r.Intn(100); i >= 0; i-- {
			l := mem.Line(1 + r.Intn(300))
			if r.Intn(4) == 0 {
				s.remove(l)
			} else {
				s.insert(l)
			}
		}
		s.clear()
		for i := range s.slots {
			if v := s.slots[i].Load(); v != emptySlot {
				t.Fatalf("round %d: slot %d holds %#x after clear", round, i, v)
			}
		}
	}
}

// TestLazyStaleLineKillsNoFreshAttempt: a line an earlier transaction of
// one thread read or wrote must not be in the line sets of its next
// transaction. If Begin's clear left one behind, a committer writing that
// line would kill the fresh attempt, which never touched it.
func TestLazyStaleLineKillsNoFreshAttempt(t *testing.T) {
	arena := mem.NewArena(1 << 16)
	base := arena.AllocLines(256 * mem.WordsPerLine)
	sys, err := NewLazy(tm.Config{Arena: arena, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	line := func(i int) mem.Addr { return base + mem.Addr(i*mem.WordsPerLine) }
	const footprint = 128 // lines 0..63 read, 64..127 written
	fresh := line(200)
	th0, th1 := sys.Thread(0), sys.Thread(1)
	th0.Atomic(func(tx tm.Tx) {
		for i := 0; i < footprint/2; i++ {
			tx.Load(line(i))
			tx.Store(line(footprint/2+i), 1)
		}
	})
	open, committed := make(chan struct{}), make(chan struct{})
	attempts := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		th0.Atomic(func(tx tm.Tx) {
			attempts++
			tx.Load(fresh)
			if attempts == 1 {
				close(open)
				<-committed
			}
			tx.Store(fresh, tx.Load(fresh)+1)
		})
	}()
	<-open
	th1.Atomic(func(tx tm.Tx) {
		for i := 0; i < footprint; i++ {
			tx.Store(line(i), 2)
		}
	})
	close(committed)
	<-done
	if attempts != 1 {
		t.Fatalf("the fresh transaction ran %d attempts: a committer killed it over a line only its predecessor touched", attempts)
	}
}

// longestRun is the longest cyclic run of non-empty slots: no probe of the
// set reads more slots than one more than it.
func (s *lineSet) longestRun() int {
	n := len(s.slots)
	best, run := 0, 0
	for i := 0; i < 2*n && best < n; i++ {
		if s.slots[i%n].Load() == emptySlot {
			run = 0
			continue
		}
		run++
		best = max(best, run)
	}
	return best
}

// TestLineSetChurnKeepsProbesShort: a transaction that reads and
// early-releases a million distinct lines, as labyrinth's grid copy does at
// the paper's size, must keep every probe of its read set short. Were each
// remove to leave a tombstone, no slot would be empty after a few thousand
// pairs and each insert would probe the whole table.
func TestLineSetChurnKeepsProbesShort(t *testing.T) {
	s := newLineSet(capacityLines)
	worst := 0
	for i := 1; i <= 1_000_000; i++ {
		if _, ok := s.insert(mem.Line(i)); !ok {
			t.Fatalf("pair %d: insert overflowed", i)
		}
		s.remove(mem.Line(i))
		if i%4096 == 0 {
			worst = max(worst, s.longestRun())
		}
	}
	if worst > 1 || s.len() != 0 {
		t.Fatalf("after 10^6 insert/remove pairs: a probe run of %d of %d slots and %d live lines, want at most 1 and 0",
			worst, len(s.slots), s.len())
	}
}
