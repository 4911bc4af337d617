package mem

import (
	"sync/atomic"
	"testing"
)

// TestCommitStoresReadBack: a word written by StoreOwned is the one Load
// reads back, and a lock word written by StoreRelease is the one its atomic
// Load reads back, with the neighbouring words untouched. It runs on both
// backings: NewArena's (the anonymous mapping on Linux outside -race) and a
// heap slice, the backing of backing_other.go.
func TestCommitStoresReadBack(t *testing.T) {
	const n = 1 << 12
	for _, c := range []struct {
		name string
		a    *Arena
	}{
		{"NewArena", NewArena(n)},
		{"heap", &Arena{words: make([]uint64, n)}},
	} {
		t.Run(c.name, func(t *testing.T) {
			for _, addr := range []Addr{WordsPerLine, n / 2, n - 1} {
				for _, v := range []uint64{1, 0xdead_beef_cafe_f00d, ^uint64(0), 0} {
					c.a.StoreOwned(addr, v)
					if got := c.a.Load(addr); got != v {
						t.Fatalf("StoreOwned(%d, %#x): Load reads %#x", addr, v, got)
					}
					if addr > WordsPerLine && c.a.Load(addr-1) != 0 {
						t.Fatalf("StoreOwned(%d) wrote its neighbour", addr)
					}
				}
			}
		})
	}

	// The lock words the protocols release: a lock-table stripe (an
	// element of a []atomic.Uint64) and a padded sequence word (an
	// atomic.Uint64 field behind a line of padding).
	stripes := make([]atomic.Uint64, 3)
	var padded struct {
		_ [64]byte
		v atomic.Uint64
		_ [56]byte
	}
	for _, v := range []uint64{7<<1 | 1, 42 << 1, ^uint64(0), 0} {
		StoreRelease(&stripes[1], v)
		if got := stripes[1].Load(); got != v {
			t.Fatalf("StoreRelease(stripe, %#x): Load reads %#x", v, got)
		}
		if stripes[0].Load() != 0 || stripes[2].Load() != 0 {
			t.Fatal("StoreRelease wrote a neighbouring stripe")
		}
		StoreRelease(&padded.v, v)
		if got := padded.v.Load(); got != v {
			t.Fatalf("StoreRelease(padded, %#x): Load reads %#x", v, got)
		}
	}
}
