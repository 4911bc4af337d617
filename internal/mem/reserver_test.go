package mem

import (
	"errors"
	"strings"
	"sync"
	"testing"
)

// TestReserverAddressesDistinct is the concurrent refill stress test (run
// with -race): many reservers bump-allocating in parallel must hand out
// distinct, non-Nil addresses, and — because chunks are line-aligned and
// span whole lines — no two reservers' words may ever share a cache line.
func TestReserverAddressesDistinct(t *testing.T) {
	const (
		workers = 8
		perW    = 5000
		chunk   = 64
	)
	arena := NewArena(workers*perW*2 + 1<<12)
	got := make([][]Addr, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := arena.NewReserver(chunk)
			addrs := make([]Addr, 0, perW)
			for i := 0; i < perW; i++ {
				a := r.Alloc(1 + i%3)
				if a == Nil {
					t.Errorf("worker %d: Reserver returned Nil", w)
					return
				}
				addrs = append(addrs, a)
			}
			got[w] = addrs
		}(w)
	}
	wg.Wait()
	owner := make(map[Addr]int)     // word → worker
	lineOwner := make(map[Line]int) // line → worker
	for w, addrs := range got {
		for i, a := range addrs {
			// Every word of the allocation must be unclaimed.
			n := 1 + i%3
			for off := 0; off < n; off++ {
				word := a + Addr(off)
				if prev, dup := owner[word]; dup {
					t.Fatalf("word %d handed to workers %d and %d", word, prev, w)
				}
				owner[word] = w
				l := LineOf(word)
				if prev, seen := lineOwner[l]; seen && prev != w {
					t.Fatalf("line %d shared by workers %d and %d", l, prev, w)
				}
				lineOwner[l] = w
			}
		}
	}
}

// TestReserverRefillCount pins the contended-atomic budget: allocating W
// words through a chunkWords reserver must go to the shared bump pointer
// at most ceil(W/chunk)+1 times — one contended atomic per chunk, not per
// allocation.
func TestReserverRefillCount(t *testing.T) {
	const chunk = 256
	arena := NewArena(1 << 16)
	r := arena.NewReserver(chunk)
	words := 0
	for i := 0; i < 4000; i++ {
		r.Alloc(1)
		words++
	}
	maxRefills := uint64(words/chunk + 1)
	if got := r.Refills(); got == 0 || got > maxRefills {
		t.Fatalf("refills = %d for %d words (chunk %d), want 1..%d", got, words, chunk, maxRefills)
	}
	// Mixed sizes still amortize: only whole-chunk exhaustion refills.
	r2 := arena.NewReserver(chunk)
	words = 0
	for i := 0; i < 1000; i++ {
		n := 1 + i%7
		r2.Alloc(n)
		words += n
	}
	// Each refill strands at most one partial allocation's worth of tail,
	// so the bound gains a small slack factor for the discarded tails.
	maxRefills = uint64(words/chunk + words/chunk/8 + 2)
	if got := r2.Refills(); got > maxRefills {
		t.Fatalf("mixed-size refills = %d for %d words (chunk %d), want <= %d", got, words, chunk, maxRefills)
	}
}

// TestReserverChunksLineAligned: every refill starts on a line boundary
// even when the shared pointer is left misaligned by direct Allocs.
func TestReserverChunksLineAligned(t *testing.T) {
	arena := NewArena(1 << 12)
	arena.Alloc(3) // misalign the shared pointer
	r := arena.NewReserver(8)
	for i := 0; i < 20; i++ {
		a := r.Alloc(8) // == chunk, so every call starts a fresh chunk
		if a%WordsPerLine != 0 {
			t.Fatalf("chunk start %d not line-aligned", a)
		}
		arena.Alloc(1) // re-misalign between refills
	}
}

// TestReserverPassthrough: chunk < 1 must behave exactly like Arena.Alloc
// (the path of arenas too small to reserve from) and never refill.
func TestReserverPassthrough(t *testing.T) {
	arena := NewArena(1 << 10)
	r := arena.NewReserver(0)
	before := arena.Used()
	a := r.Alloc(5)
	if a == Nil || arena.Used() != before+5 {
		t.Fatalf("passthrough alloc: addr=%d used %d -> %d", a, before, arena.Used())
	}
	if r.Refills() != 0 {
		t.Fatal("passthrough reserver counted a refill")
	}
}

// TestReserverOversized: a request larger than the chunk goes to the
// shared pointer, line-aligned, without disturbing the private chunk.
func TestReserverOversized(t *testing.T) {
	arena := NewArena(1 << 12)
	r := arena.NewReserver(8)
	small := r.Alloc(2) // populate a chunk
	big := r.Alloc(100)
	if big%WordsPerLine != 0 {
		t.Fatalf("oversized alloc %d not line-aligned", big)
	}
	next := r.Alloc(2)
	if next != small+2 {
		t.Fatalf("oversized alloc disturbed the chunk: %d then %d", small, next)
	}
}

// TestReserverExhaustionPanics: refill exhaustion must raise the same
// actionable message as Arena.Alloc.
func TestReserverExhaustionPanics(t *testing.T) {
	arena := NewArena(16)
	r := arena.NewReserver(8)
	r.Alloc(8)
	defer func() {
		rec := recover()
		if rec == nil {
			t.Fatal("expected exhaustion panic")
		}
		err, ok := rec.(error)
		if !ok || !errors.Is(err, ErrArenaFull) || !strings.Contains(err.Error(), "mem: arena exhausted (cap 16 words") {
			t.Fatalf("panic %v lacks the actionable arena-exhausted message", rec)
		}
	}()
	r.Alloc(8) // second chunk cannot fit (line 0 is burned)
}

// TestReserverUsedHighWater documents Used(): it includes the unconsumed
// tails of reserved chunks, so it may exceed the words handed out.
func TestReserverUsedHighWater(t *testing.T) {
	arena := NewArena(1 << 10)
	base := arena.Used()
	r := arena.NewReserver(64)
	r.Alloc(1)
	if used := arena.Used() - base; used != 64 {
		t.Fatalf("Used() advanced %d after a 1-word alloc, want the whole 64-word chunk", used)
	}
}
