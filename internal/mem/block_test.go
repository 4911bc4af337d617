package mem

import (
	"strings"
	"testing"
)

// TestBlockDrawsAndWritesInPlace: a block's Allocs hand out its words in
// order from where Carve drew it, its Stores land in the arena and are
// counted, and a Store outside the block panics even where the arena has
// room.
func TestBlockDrawsAndWritesInPlace(t *testing.T) {
	a := NewArena(256)
	a.Alloc(3)
	used := a.Used()
	b := a.Carve(10)
	if a.Used() != used+10 || b.Left() != 10 {
		t.Fatalf("Carve(10) moved Used %d -> %d, Left %d", used, a.Used(), b.Left())
	}
	x, y := b.Alloc(4), b.Alloc(6)
	if x != Addr(used) || y != x+4 || b.Left() != 0 {
		t.Fatalf("Allocs at %d and %d (Left %d), want %d and %d", x, y, b.Left(), used, used+4)
	}
	b.Store(x, 7)
	b.Store(y+5, 9)
	if a.Load(x) != 7 || a.Load(y+5) != 9 || b.Stores() != 2 {
		t.Fatalf("block stores read back %d and %d, counted %d", a.Load(x), a.Load(y+5), b.Stores())
	}
	for _, addr := range []Addr{x - 1, y + 6} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Store at %d, outside the block [%d, %d), did not panic", addr, x, y+6)
				}
			}()
			b.Store(addr, 1)
		}()
	}
}

// TestBlockTrimGivesBackTheTail: Trim returns the undrawn words to the
// arena, so the next Alloc lands right after what the block drew; a Trim
// after the arena drew past the block panics.
func TestBlockTrimGivesBackTheTail(t *testing.T) {
	a := NewArena(256)
	used := a.Used()
	b := a.Carve(100)
	b.Alloc(7)
	b.Trim()
	if a.Used() != used+7 {
		t.Fatalf("Used %d after trimming a block that drew 7 words, want %d", a.Used(), used+7)
	}
	if got := a.Alloc(1); got != Addr(used+7) {
		t.Fatalf("Alloc after Trim at %d, want %d", got, used+7)
	}
	b = a.Carve(10)
	a.Alloc(1)
	defer func() {
		if r, _ := recover().(string); !strings.Contains(r, "Trim") {
			t.Fatalf("Trim behind a later draw: recovered %q, want a Trim panic", r)
		}
	}()
	b.Trim()
}
