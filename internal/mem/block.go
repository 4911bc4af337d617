package mem

import (
	"fmt"
	"runtime"
)

// Block is a run of arena words carved off the shared bump pointer for one
// bulk build: vacation's staging of a table, or an epoch swap's compacted
// copy. Its contract:
//
//   - goroutine-private: one goroutine draws from it and writes it, so its
//     bump pointer is a plain field, not an atomic;
//   - quiescent: nothing reads its words until the build is done and handed
//     over (a WaitGroup, a return), so its stores are plain stores;
//   - write-only: it has Alloc and Store and no Load, so a build through it
//     never reads back what it wrote.
//
// Store is bounds-checked against the block, not only the arena, so a build
// cannot write past what it carved, and it counts its calls (Stores), so a
// test can pin how many words a build writes. Like every accessor it keeps
// the arena reachable until the write completes (see Arena).
type Block struct {
	a      *Arena
	words  []uint64 // a.words[base:base+len(words)]
	base   Addr
	next   Addr // next undrawn word
	stores int  // Store calls
}

// Carve draws n words off the arena's shared bump pointer as one block. It
// panics with an ErrArenaFull-wrapped error when they do not fit, as Alloc
// does.
func (a *Arena) Carve(n int) *Block {
	base := a.Alloc(n)
	return &Block{a: a, words: a.words[base : int(base)+n], base: base, next: base}
}

// Alloc draws n words off the block's private bump pointer and returns the
// address of the first. It panics with an ErrArenaFull-wrapped error when
// they do not fit in what is left of the block.
func (b *Block) Alloc(n int) Addr {
	addr := b.next
	if uint(n) > uint(b.Left()) {
		b.full(n)
	}
	b.next += Addr(n)
	return addr
}

// full raises Alloc's capacity miss; out of line, so Alloc inlines.
func (b *Block) full(n int) {
	panic(fmt.Errorf("%w (a %d-word block at word %d has %d words left, need %d)",
		ErrArenaFull, len(b.words), b.base, b.Left(), n))
}

// Left returns the words not yet drawn.
func (b *Block) Left() int { return len(b.words) - int(b.next-b.base) }

// Store writes the word at addr, which must lie in the block, with a plain
// store.
func (b *Block) Store(addr Addr, v uint64) {
	b.words[addr-b.base] = v
	b.stores++
	runtime.KeepAlive(b)
}

// Stores returns how many times Store has been called on the block.
func (b *Block) Stores() int { return b.stores }

// Trim gives the undrawn tail back to the arena's shared bump pointer, so
// Used reads as if the build had drawn its words one Alloc at a time. It
// panics unless the block is still the arena's last draw. The block must
// not be used afterwards.
func (b *Block) Trim() {
	end := uint32(b.base) + uint32(len(b.words))
	if !b.a.next.CompareAndSwap(end, uint32(b.next)) {
		panic(fmt.Sprintf("mem: Trim of a block ending at word %d, but the arena drew up to %d since", end, b.a.next.Load()))
	}
	b.words = b.words[:b.next-b.base]
}
