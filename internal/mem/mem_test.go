package mem

import (
	"errors"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"testing/quick"
)

func TestAllocNeverReturnsNil(t *testing.T) {
	a := NewArena(1024)
	for i := 0; i < 100; i++ {
		if addr := a.Alloc(1); addr == Nil {
			t.Fatalf("Alloc returned Nil at iteration %d", i)
		}
	}
}

func TestAllocDistinctRegions(t *testing.T) {
	a := NewArena(1024)
	x := a.Alloc(4)
	y := a.Alloc(4)
	if y < x+4 {
		t.Fatalf("overlapping allocations: x=%d y=%d", x, y)
	}
}

func TestAllocZeroOrNegativeGetsOneWord(t *testing.T) {
	a := NewArena(64)
	x := a.Alloc(0)
	y := a.Alloc(-5)
	if x == y {
		t.Fatalf("zero-size allocations must still be distinct: %d %d", x, y)
	}
}

func TestAllocExhaustionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on arena exhaustion")
		}
	}()
	a := NewArena(8)
	a.Alloc(100)
}

// TestReleasedArenaIsExhausted: after Release every allocation path reports
// ErrArenaFull — directly and through a Reserver refill — and Used reads
// Cap, while Used and Cap stay safe to read during the Release.
func TestReleasedArenaIsExhausted(t *testing.T) {
	a := NewArena(1 << 12)
	a.Store(a.Alloc(4), 1)
	r := a.NewReserver(64)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for a.Used() < a.Cap() {
			runtime.Gosched()
		}
	}()
	a.Release()
	<-done
	if _, err := a.TryAlloc(1); !errors.Is(err, ErrArenaFull) {
		t.Fatalf("TryAlloc after Release: %v, want ErrArenaFull", err)
	}
	if _, err := r.TxAlloc(1); !errors.Is(err, ErrArenaFull) {
		t.Fatalf("Reserver refill after Release: %v, want ErrArenaFull", err)
	}
	if a.Used() != a.Cap() {
		t.Fatalf("Used = %d after Release, want Cap = %d", a.Used(), a.Cap())
	}
}

// TestHugeRequestsDoNotWrapTheBumpPointer: a request whose end lies past
// 2^32 words must fail like any other capacity miss and leave the bump
// pointer alone. Computed in 32 bits, 1<<32 - 8 words from address 14 ended
// at 6, so TryAlloc handed out address 14 and moved Used() back to 6, and a
// request of 1<<32 + 8 words was truncated to 8.
func TestHugeRequestsDoNotWrapTheBumpPointer(t *testing.T) {
	if strconv.IntSize < 64 {
		t.Skip("requests of 2^32 words need a 64-bit int")
	}
	for _, huge := range []uint64{1<<32 - 8, 1<<32 + 8, 1 << 40} {
		n := int(huge)
		a := NewArena(1000)
		a.Alloc(10)
		used := a.Used()
		allocs := map[string]func() (Addr, error){
			"TryAlloc":            func() (Addr, error) { return a.TryAlloc(n) },
			"tryAllocAligned":     func() (Addr, error) { return a.tryAllocAligned(n) },
			"Reserver.TxAlloc":    func() (Addr, error) { return a.NewReserver(64).TxAlloc(n) },
			"passthrough.TxAlloc": func() (Addr, error) { return a.NewReserver(0).TxAlloc(n) },
		}
		for name, alloc := range allocs {
			addr, err := alloc()
			if !errors.Is(err, ErrArenaFull) {
				t.Fatalf("%s(%d) on a 1000-word arena = %d, %v; want ErrArenaFull", name, n, addr, err)
			}
			if got := a.Used(); got != used {
				t.Fatalf("%s(%d) moved Used() from %d to %d", name, n, used, got)
			}
		}
		if _, err := a.TryAlloc(a.Cap() - used); err != nil {
			t.Fatalf("the rest of the arena no longer fits after the misses: %v", err)
		}
	}
}

func TestNewArenaRefusesCapacityBeyondAddrRange(t *testing.T) {
	if strconv.IntSize < 64 {
		t.Skip("2^32 words need a 64-bit int")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewArena(2^32) did not panic: its last word has no Addr")
		}
	}()
	NewArena(int(uint64(1) << 32))
}

// TestFreshArenaReadsZero: every word of a new arena reads zero, also when
// an arena of the same size was fully written and collected just before.
func TestFreshArenaReadsZero(t *testing.T) {
	const words = 1 << 18
	dirty := NewArena(words)
	for i := 0; i < words; i++ {
		dirty.Store(Addr(i), ^uint64(0))
	}
	dirty = nil
	runtime.GC()
	a := NewArena(words)
	for i := 0; i < words; i++ {
		if v := a.Load(Addr(i)); v != 0 {
			t.Fatalf("word %d of a fresh arena = %#x", i, v)
		}
	}
}

func TestAllocLinesAlignment(t *testing.T) {
	a := NewArena(4096)
	a.Alloc(3) // misalign the bump pointer
	for i := 1; i <= 9; i++ {
		addr := a.AllocLines(i)
		if addr%WordsPerLine != 0 {
			t.Fatalf("AllocLines(%d) = %d not line aligned", i, addr)
		}
	}
}

func TestAllocLinesWholeLines(t *testing.T) {
	a := NewArena(4096)
	x := a.AllocLines(1)
	y := a.AllocLines(1)
	if y-x != WordsPerLine {
		t.Fatalf("AllocLines(1) blocks should be exactly one line apart: %d %d", x, y)
	}
}

func TestLoadStoreRoundTrip(t *testing.T) {
	a := NewArena(128)
	addr := a.Alloc(2)
	a.Store(addr, 0xdeadbeefcafef00d)
	if got := a.Load(addr); got != 0xdeadbeefcafef00d {
		t.Fatalf("Load = %#x", got)
	}
	if got := a.Load(addr + 1); got != 0 {
		t.Fatalf("adjacent word dirtied: %#x", got)
	}
}

func TestCompareAndSwap(t *testing.T) {
	a := NewArena(64)
	addr := a.Alloc(1)
	a.Store(addr, 7)
	if a.CompareAndSwap(addr, 8, 9) {
		t.Fatal("CAS with wrong old succeeded")
	}
	if !a.CompareAndSwap(addr, 7, 9) {
		t.Fatal("CAS with right old failed")
	}
	if a.Load(addr) != 9 {
		t.Fatalf("Load after CAS = %d", a.Load(addr))
	}
}

func TestLineMapping(t *testing.T) {
	if LineOf(0) != 0 || LineOf(3) != 0 || LineOf(4) != 1 || LineOf(7) != 1 || LineOf(8) != 2 {
		t.Fatal("LineOf mapping wrong")
	}
	for l := Line(0); l < 16; l++ {
		if LineOf(LineStart(l)) != l {
			t.Fatalf("LineStart/LineOf mismatch at %d", l)
		}
	}
}

func TestF2WRoundTrip(t *testing.T) {
	f := func(x float64) bool { return W2F(F2W(x)) == x || x != x } // NaN is fine either way
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentAllocDisjoint(t *testing.T) {
	const (
		goroutines = 8
		perG       = 1000
	)
	a := NewArena(goroutines*perG*2 + 64)
	var wg sync.WaitGroup
	got := make([][]Addr, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				got[g] = append(got[g], a.Alloc(2))
			}
		}(g)
	}
	wg.Wait()
	seen := map[Addr]bool{}
	for _, list := range got {
		for _, addr := range list {
			if seen[addr] {
				t.Fatalf("address %d allocated twice", addr)
			}
			seen[addr] = true
		}
	}
}

func TestDirectSatisfiesContract(t *testing.T) {
	a := NewArena(64)
	d := Direct{A: a}
	addr := d.Alloc(1)
	d.Store(addr, 42)
	if d.Load(addr) != 42 {
		t.Fatal("Direct round trip failed")
	}
	d.Free(addr, 1) // no-op, must not panic
}

// storeSpan is the region the store benchmarks sweep: 4096 words (32 KiB),
// small enough to stay in L1, so a store's cost is the instruction's.
const storeSpan = 4096

// BenchmarkArenaStore is the per-word cost of Arena.Store, the atomic store
// every transactional write uses (a locked XCHG on amd64).
func BenchmarkArenaStore(b *testing.B) {
	a := NewArena(storeSpan)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Store(Addr(i&(storeSpan-1)), uint64(i))
	}
}

// BenchmarkDirectStore is the per-word cost of Direct.Store, the plain
// store that staging, checking and compaction use.
func BenchmarkDirectStore(b *testing.B) {
	d := Direct{A: NewArena(storeSpan)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Store(Addr(i&(storeSpan-1)), uint64(i))
	}
}
