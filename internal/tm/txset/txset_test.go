package txset

import (
	"testing"

	"github.com/stamp-go/stamp/internal/mem"
	"github.com/stamp-go/stamp/internal/rng"
)

func TestWriteSetBasic(t *testing.T) {
	var w WriteSet
	w.Reset()
	if w.Len() != 0 {
		t.Fatalf("empty Len = %d", w.Len())
	}
	if _, ok := w.Get(7); ok {
		t.Fatal("Get on empty set hit")
	}
	if !w.Put(7, 100) {
		t.Fatal("first Put not reported as new")
	}
	if w.Put(7, 200) {
		t.Fatal("overwriting Put reported as new")
	}
	if v, ok := w.Get(7); !ok || v != 200 {
		t.Fatalf("Get(7) = %d,%v, want 200,true", v, ok)
	}
	if !w.Contains(7) || w.Contains(8) {
		t.Fatal("Contains wrong")
	}
	if w.Len() != 1 {
		t.Fatalf("Len = %d, want 1", w.Len())
	}
}

func TestWriteSetInsertKeepsFirstValue(t *testing.T) {
	var w WriteSet
	w.Reset()
	if !w.Insert(3, 10) {
		t.Fatal("first Insert not reported")
	}
	if w.Insert(3, 20) {
		t.Fatal("second Insert reported as inserted")
	}
	if v, _ := w.Get(3); v != 10 {
		t.Fatalf("Insert overwrote: got %d, want 10", v)
	}
}

// TestWriteSetGrowth crosses the small-scan threshold and several index
// rebuilds, checking every address stays retrievable.
func TestWriteSetGrowth(t *testing.T) {
	var w WriteSet
	w.Reset()
	const n = 4096
	for i := 0; i < n; i++ {
		a := mem.Addr(i*3 + 1)
		if !w.Put(a, uint64(i)) {
			t.Fatalf("Put(%d) not new", a)
		}
		if i == smallMax-1 || i == smallMax || i == smallMax+1 {
			// Around the transition, re-check everything inserted so far.
			for j := 0; j <= i; j++ {
				if v, ok := w.Get(mem.Addr(j*3 + 1)); !ok || v != uint64(j) {
					t.Fatalf("at size %d: Get(%d) = %d,%v", i+1, j*3+1, v, ok)
				}
			}
		}
	}
	if w.Len() != n {
		t.Fatalf("Len = %d, want %d", w.Len(), n)
	}
	for i := 0; i < n; i++ {
		if v, ok := w.Get(mem.Addr(i*3 + 1)); !ok || v != uint64(i) {
			t.Fatalf("Get(%d) = %d,%v, want %d,true", i*3+1, v, ok, i)
		}
	}
	if _, ok := w.Get(2); ok {
		t.Fatal("absent address hit after growth")
	}
}

// TestWriteSetCollisions exercises addresses engineered to collide in the
// hash index (same slotHash masked value for a small table).
func TestWriteSetCollisions(t *testing.T) {
	var w WriteSet
	w.Reset()
	// Fill past smallMax so the index is live, with a stride that maps many
	// addresses onto few slots of the minSlots-sized table.
	const stride = 1 << 16 // slotHash's low bits repeat under small masks
	for i := 0; i < 64; i++ {
		w.Put(mem.Addr(1+i*stride), uint64(i))
	}
	for i := 0; i < 64; i++ {
		if v, ok := w.Get(mem.Addr(1 + i*stride)); !ok || v != uint64(i) {
			t.Fatalf("colliding Get(%d) = %d,%v, want %d", 1+i*stride, v, ok, i)
		}
	}
	if _, ok := w.Get(mem.Addr(1 + 64*stride)); ok {
		t.Fatal("absent colliding address hit")
	}
}

// TestWriteSetInsertionOrder: Entries must iterate in first-store order —
// the writeback order lazy runtimes and the rollback order (reversed) eager
// runtimes rely on.
func TestWriteSetInsertionOrder(t *testing.T) {
	var w WriteSet
	w.Reset()
	addrs := []mem.Addr{9, 3, 200, 3, 77, 9, 1000, 5}
	for i, a := range addrs {
		w.Put(a, uint64(i))
	}
	want := []mem.Addr{9, 3, 200, 77, 1000, 5}
	es := w.Entries()
	if len(es) != len(want) {
		t.Fatalf("entries = %d, want %d", len(es), len(want))
	}
	for i, e := range es {
		if e.Addr != want[i] {
			t.Fatalf("entry %d = addr %d, want %d", i, e.Addr, want[i])
		}
	}
	// Re-stored addresses keep their original position with the new value.
	if es[0].Val != 5 || es[1].Val != 3 {
		t.Fatalf("overwrite values = %d,%d, want 5,3", es[0].Val, es[1].Val)
	}
}

// TestWriteSetResetIsolation: entries from a previous transaction must be
// invisible after Reset, including stale hash-index slots (the epoch trick),
// across both small and hashed regimes.
func TestWriteSetResetIsolation(t *testing.T) {
	var w WriteSet
	for round := 0; round < 2000; round++ {
		w.Reset()
		n := 1 + round%40 // alternate small and hashed sizes
		for i := 0; i < n; i++ {
			w.Put(mem.Addr(1+i+round), uint64(round))
		}
		// Addresses from the previous round that are not in this round must
		// miss even when a stale slot points at a plausible entry position.
		if round > 0 {
			stale := mem.Addr(1 + (round - 1) + 100)
			if v, ok := w.Get(stale); ok && v != uint64(round) {
				t.Fatalf("round %d: stale value leaked: %d", round, v)
			}
		}
		for i := 0; i < n; i++ {
			if v, ok := w.Get(mem.Addr(1 + i + round)); !ok || v != uint64(round) {
				t.Fatalf("round %d: Get = %d,%v", round, v, ok)
			}
		}
	}
}

// TestWriteSetFilter: the one-word filter must never produce a false
// negative (a written address reporting MayContain false); false positives
// are allowed and measured loosely.
func TestWriteSetFilter(t *testing.T) {
	var w WriteSet
	w.Reset()
	for i := 0; i < 4; i++ {
		a := mem.Addr(1 + i*97)
		w.Put(a, 1)
		if !w.MayContain(a) {
			t.Fatalf("false negative for written address %d", a)
		}
	}
	// With 4 distinct filter bits set out of 64, a big sample of absent
	// addresses must mostly be rejected by the filter alone.
	rejected := 0
	const sample = 10000
	for i := 0; i < sample; i++ {
		a := mem.Addr(100000 + i)
		if !w.MayContain(a) {
			rejected++
		}
		if v, ok := w.Get(a); ok {
			t.Fatalf("absent address %d hit with value %d", a, v)
		}
	}
	if rejected < sample/2 {
		t.Fatalf("filter rejected only %d/%d absent addresses; expected a majority", rejected, sample)
	}
}

// TestWriteSetDifferential drives WriteSet and a plain map with the same
// randomized operation stream and requires identical observable behavior —
// the semantics-preservation proof for the map replacement.
func TestWriteSetDifferential(t *testing.T) {
	r := rng.New(42)
	var w WriteSet
	for round := 0; round < 200; round++ {
		w.Reset()
		ref := make(map[mem.Addr]uint64)
		var order []mem.Addr
		nops := 1 + r.Intn(300)
		addrSpace := 1 + r.Intn(64) // small spaces force overwrites and collisions
		for op := 0; op < nops; op++ {
			a := mem.Addr(1 + r.Intn(addrSpace))
			switch r.Intn(4) {
			case 0, 1: // Put
				v := uint64(r.Intn(1000))
				isNew := w.Put(a, v)
				_, existed := ref[a]
				if isNew == existed {
					t.Fatalf("round %d op %d: Put new=%v, map existed=%v", round, op, isNew, existed)
				}
				if !existed {
					order = append(order, a)
				}
				ref[a] = v
			case 2: // Insert
				v := uint64(r.Intn(1000))
				ins := w.Insert(a, v)
				_, existed := ref[a]
				if ins == existed {
					t.Fatalf("round %d op %d: Insert=%v, map existed=%v", round, op, ins, existed)
				}
				if !existed {
					ref[a] = v
					order = append(order, a)
				}
			case 3: // Get
				v, ok := w.Get(a)
				rv, rok := ref[a]
				if ok != rok || (ok && v != rv) {
					t.Fatalf("round %d op %d: Get(%d) = %d,%v, map %d,%v", round, op, a, v, ok, rv, rok)
				}
			}
		}
		if w.Len() != len(ref) {
			t.Fatalf("round %d: Len = %d, map %d", round, w.Len(), len(ref))
		}
		es := w.Entries()
		if len(es) != len(order) {
			t.Fatalf("round %d: entries %d, want %d", round, len(es), len(order))
		}
		for i, e := range es {
			if e.Addr != order[i] {
				t.Fatalf("round %d: entry %d addr %d, want %d (insertion order)", round, i, e.Addr, order[i])
			}
			if e.Val != ref[e.Addr] {
				t.Fatalf("round %d: entry %d val %d, map %d", round, i, e.Val, ref[e.Addr])
			}
		}
	}
}

func TestReadSetDedup(t *testing.T) {
	var rs ReadSet
	rs.Reset()
	rs.Add(5, 10)
	rs.Add(5, 10) // consecutive duplicate: dropped
	rs.Add(5, 10)
	rs.Add(6, 1)
	rs.Add(5, 10) // non-adjacent duplicate: kept (safe, still validated)
	rs.Add(5, 11) // same addr, new value: kept (validation must see it)
	if rs.Len() != 4 {
		t.Fatalf("Len = %d, want 4", rs.Len())
	}
	want := []ReadEntry{{5, 10}, {6, 1}, {5, 10}, {5, 11}}
	for i, e := range rs.Entries() {
		if e != want[i] {
			t.Fatalf("entry %d = %v, want %v", i, e, want[i])
		}
	}
	rs.Reset()
	if rs.Len() != 0 {
		t.Fatal("Reset did not clear")
	}
}

func TestIndexSetDedup(t *testing.T) {
	var s IndexSet
	s.Reset()
	for _, i := range []uint32{1, 1, 1, 2, 2, 1, 3} {
		s.Add(i)
	}
	want := []uint32{1, 2, 1, 3}
	got := s.Slice()
	if len(got) != len(want) {
		t.Fatalf("Slice = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Slice = %v, want %v", got, want)
		}
	}
}

// Microbenchmarks of the structure itself; the runtime-level barrier costs
// are the benchmark module's tm.<rt>.barrier.* probes (bench/probes.go).

func BenchmarkWriteSetFilterSkip(b *testing.B) {
	var w WriteSet
	w.Reset()
	w.Put(1, 1)
	b.ResetTimer()
	miss := 0
	for i := 0; i < b.N; i++ {
		if _, ok := w.Get(mem.Addr(1000 + i&1023)); !ok {
			miss++
		}
	}
	_ = miss
}

func BenchmarkWriteSetSmallHit(b *testing.B) {
	var w WriteSet
	w.Reset()
	for i := 0; i < smallMax; i++ {
		w.Put(mem.Addr(1+i), uint64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Get(mem.Addr(1 + i&7))
	}
}

func BenchmarkWriteSetHashedHit(b *testing.B) {
	var w WriteSet
	w.Reset()
	for i := 0; i < 256; i++ {
		w.Put(mem.Addr(1+i*5), uint64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Get(mem.Addr(1 + (i&255)*5))
	}
}

func BenchmarkWriteSetPutReset(b *testing.B) {
	var w WriteSet
	for i := 0; i < b.N; i++ {
		w.Reset()
		for j := 0; j < 16; j++ {
			w.Put(mem.Addr(1+j*3), uint64(j))
		}
	}
}

func BenchmarkMapPutClear(b *testing.B) {
	m := make(map[mem.Addr]uint64)
	for i := 0; i < b.N; i++ {
		clear(m)
		for j := 0; j < 16; j++ {
			m[mem.Addr(1+j*3)] = uint64(j)
		}
	}
}
