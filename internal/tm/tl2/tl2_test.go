package tl2

import (
	"testing"

	"github.com/stamp-go/stamp/internal/mem"
	"github.com/stamp-go/stamp/internal/tm"
)

func TestLockEntryEncoding(t *testing.T) {
	// unlocked: version<<1; locked: owner<<1|1.
	if owner, locked := LockedBy(0); locked || owner != 0 {
		t.Fatal("zero entry must be unlocked version 0")
	}
	if v := VersionOf(42 << 1); v != 42 {
		t.Fatalf("version = %d", v)
	}
	if owner, locked := LockedBy(7<<1 | 1); !locked || owner != 7 {
		t.Fatalf("owner = %d locked = %v", owner, locked)
	}
}

func TestLockTableIndexStable(t *testing.T) {
	for _, bits := range []int{minTableBits, 16, maxTableBits} {
		lt := NewLockTable(bits)
		for _, a := range []mem.Addr{0, 1, 4, 1 << 20, 1<<31 - 1} {
			if lt.Index(a) != lt.Index(a) {
				t.Fatal("index not deterministic")
			}
			if int(lt.Index(a)) >= len(lt.entries) {
				t.Fatal("index out of range")
			}
		}
	}
}

// TestStripeMapProperties pins the three properties LockTable.Index
// documents, per table size: (1) the 8 words of an aligned arena line map
// onto the 8 entries of one aligned table line, wrapped or not; (2) the map
// is injective over [0, stripes), i.e. whenever the table covers the arena;
// (3) on a wrapped table, addresses a stride of the table size (or twice
// it) apart spread over at least half as many stripes as there are
// addresses — a plain a&mask puts them all on one.
func TestStripeMapProperties(t *testing.T) {
	const words = 8 // per 64-byte line, arena and table alike
	for _, bits := range []int{minTableBits, 16, maxTableBits} {
		lt := NewLockTable(bits)
		n := uint32(lt.Stripes())

		seen := make([]bool, n)
		for a := uint32(0); a < n; a++ {
			idx := lt.Index(mem.Addr(a))
			if seen[idx] {
				t.Fatalf("bits=%d: not injective below the table size: address %d reuses stripe %d", bits, a, idx)
			}
			seen[idx] = true
		}

		// Lines inside the table, straddling its end, and far past it.
		for _, base := range []uint32{0, words, n - words, n, 3*n + 5*words, n * 257, 1<<31 - words} {
			group := lt.Index(mem.Addr(base)) / words
			var hit [words]bool
			for w := uint32(0); w < words; w++ {
				idx := lt.Index(mem.Addr(base + w))
				if idx/words != group || hit[idx%words] {
					t.Errorf("bits=%d: line %#x: word %d maps to stripe %d, outside table line %d or onto a taken entry", bits, base, w, idx, group)
				}
				hit[idx%words] = true
			}
		}

		const addrs = 256
		for _, stride := range []uint32{n, 2 * n} {
			distinct := map[uint32]bool{}
			for k := uint32(0); k < addrs; k++ {
				distinct[lt.Index(mem.Addr(3+k*stride))] = true
			}
			if len(distinct) < addrs/2 {
				t.Errorf("bits=%d: %d addresses at stride %d share %d stripes, want >= %d", bits, addrs, stride, len(distinct), addrs/2)
			}
		}
	}
}

// TestLockTableRightSizing pins the arena-derived table size, clamped to
// [2^minTableBits, 2^maxTableBits] stripes.
func TestLockTableRightSizing(t *testing.T) {
	cases := []struct {
		arenaWords int
		want       int // stripes
	}{
		{1 << 10, 1 << minTableBits}, // tiny arena: floor
		{1 << 14, 1 << 14},           // one stripe per word
		{1<<14 + 1, 1 << 15},         // rounds up to the next power of two
		{1 << 24, 1 << maxTableBits}, // huge arena: historical cap
	}
	for _, c := range cases {
		cfg := tm.Config{Arena: mem.NewArena(c.arenaWords), Threads: 2}
		lazy, err := NewLazy(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := lazy.LockTableStripes(); got != c.want {
			t.Errorf("lazy stripes(arena=%d) = %d, want %d", c.arenaWords, got, c.want)
		}
		eager, err := NewEager(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := eager.LockTableStripes(); got != c.want {
			t.Errorf("eager stripes(arena=%d) = %d, want %d", c.arenaWords, got, c.want)
		}
	}
}

func TestLazyReadOnlyCommitsWithoutClockTick(t *testing.T) {
	arena := mem.NewArena(1 << 10)
	a := arena.Alloc(1)
	sys, err := NewLazy(tm.Config{Arena: arena, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	before := sys.clock.Now()
	sys.Thread(0).Atomic(func(tx tm.Tx) { tx.Load(a) })
	if sys.clock.Now() != before {
		t.Fatal("read-only transaction advanced the global clock")
	}
}

func TestLazyWriteAdvancesClock(t *testing.T) {
	arena := mem.NewArena(1 << 10)
	a := arena.Alloc(1)
	sys, _ := NewLazy(tm.Config{Arena: arena, Threads: 1})
	before := sys.clock.Now()
	sys.Thread(0).Atomic(func(tx tm.Tx) { tx.Store(a, 1) })
	if sys.clock.Now() != before+1 {
		t.Fatalf("clock moved %d, want 1", sys.clock.Now()-before)
	}
}

func TestLazyLocksReleasedAfterCommit(t *testing.T) {
	arena := mem.NewArena(1 << 10)
	a := arena.Alloc(1)
	sys, _ := NewLazy(tm.Config{Arena: arena, Threads: 1})
	sys.Thread(0).Atomic(func(tx tm.Tx) { tx.Store(a, 9) })
	e := sys.locks.Load(sys.locks.Index(a))
	if _, locked := LockedBy(e); locked {
		t.Fatal("stripe still locked after commit")
	}
	if VersionOf(e) == 0 {
		t.Fatal("stripe version not published")
	}
}

// TestLockTableReleaseReadsBack: the entries restore and publish write with
// mem.StoreRelease are the ones Load reads back, stripe by stripe.
func TestLockTableReleaseReadsBack(t *testing.T) {
	lt := NewLockTable(minTableBits)
	held := []lockRec{{idx: 3, old: 5 << 1}, {idx: 4, old: 0}, {idx: uint32(lt.Stripes() - 1), old: 9 << 1}}
	lock := func() {
		for _, r := range held {
			lt.release(r.idx, r.old)
			if !lt.cas(r.idx, r.old, 7<<1|1) {
				t.Fatalf("stripe %d: CAS from its released entry %#x failed", r.idx, r.old)
			}
		}
	}
	lock()
	lt.restore(held)
	for _, r := range held {
		if got := lt.Load(r.idx); got != r.old {
			t.Fatalf("restore: stripe %d reads %#x, want %#x", r.idx, got, r.old)
		}
	}
	lock()
	lt.publish(held, 11)
	for _, r := range held {
		if got := lt.Load(r.idx); got != 11<<1 {
			t.Fatalf("publish: stripe %d reads %#x, want %#x", r.idx, got, 11<<1)
		}
	}
	if lt.Load(5) != 0 {
		t.Fatal("a stripe nobody held was written")
	}
}

func TestEagerLocksReleasedAfterAbortAndCommit(t *testing.T) {
	arena := mem.NewArena(1 << 10)
	a := arena.Alloc(1)
	arena.Store(a, 5)
	sys, _ := NewEager(tm.Config{Arena: arena, Threads: 1})
	first := true
	sys.Thread(0).Atomic(func(tx tm.Tx) {
		tx.Store(a, 6)
		if first {
			first = false
			// Mid-transaction the stripe must be encounter-locked.
			if _, locked := LockedBy(sys.locks.Load(sys.locks.Index(a))); !locked {
				t.Error("stripe not locked at encounter time")
			}
			tx.Restart()
		}
	})
	e := sys.locks.Load(sys.locks.Index(a))
	if _, locked := LockedBy(e); locked {
		t.Fatal("stripe still locked after commit")
	}
	if arena.Load(a) != 6 {
		t.Fatalf("final value %d", arena.Load(a))
	}
}

func TestEagerUndoRestoresOnAbort(t *testing.T) {
	arena := mem.NewArena(1 << 10)
	a := arena.Alloc(1)
	b := arena.Alloc(1)
	arena.Store(a, 10)
	arena.Store(b, 20)
	sys, _ := NewEager(tm.Config{Arena: arena, Threads: 1})
	attempt := 0
	sys.Thread(0).Atomic(func(tx tm.Tx) {
		attempt++
		if attempt == 1 {
			tx.Store(a, 11)
			tx.Store(b, 21)
			tx.Store(a, 12) // second write to a: only one undo entry
			tx.Restart()
		}
		// After rollback both must read their originals.
		if tx.Load(a) != 10 || tx.Load(b) != 20 {
			t.Errorf("rollback incomplete: a=%d b=%d", tx.Load(a), tx.Load(b))
		}
	})
	if attempt != 2 {
		t.Fatalf("attempts = %d", attempt)
	}
}

func TestLazyStripeCollisionSelfCompatible(t *testing.T) {
	// Two addresses mapping to the same stripe within one transaction must
	// not deadlock or double-acquire at commit.
	arena := mem.NewArena(1 << 22)
	sys, _ := NewLazy(tm.Config{Arena: arena, Threads: 1})
	// Find two addresses sharing a stripe.
	var a1, a2 mem.Addr
	a1 = arena.Alloc(1)
	idx := sys.locks.Index(a1)
	for {
		c := arena.Alloc(1)
		if sys.locks.Index(c) == idx {
			a2 = c
			break
		}
	}
	sys.Thread(0).Atomic(func(tx tm.Tx) {
		tx.Store(a1, 1)
		tx.Store(a2, 2)
	})
	if arena.Load(a1) != 1 || arena.Load(a2) != 2 {
		t.Fatal("colliding-stripe writes lost")
	}
}
