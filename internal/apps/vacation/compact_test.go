package vacation

import (
	"fmt"
	"testing"

	"github.com/stamp-go/stamp/internal/container"
	"github.com/stamp-go/stamp/internal/mem"
	"github.com/stamp-go/stamp/internal/rng"
	"github.com/stamp-go/stamp/internal/tm"
)

// TestCompactInto pins the epoch-swap compactor: after churn plus dead
// garbage in the source arena, the copied store passes the full invariant
// check, answers queries identically to the original, and lands in the
// destination arena at its live-set size — the garbage stays behind.
func TestCompactInto(t *testing.T) {
	const records = 64
	src := mem.NewArena(1 << 16)
	m := mem.Direct{A: src}
	st := NewStore(m, records, 42)

	// Churn: bookings for some customers, inventory updates, one customer
	// deleted again — so the compactor must follow non-trivial customer
	// lists and record states.
	items := make([]Item, 0, NumTypes)
	for typ := 0; typ < NumTypes; typ++ {
		items = append(items, Item{Typ: typ, ID: 3 + 2*typ})
	}
	for cust := 1; cust <= 8; cust++ {
		st.MakeReservation(m, cust, items)
	}
	st.UpdateTables(m, []Update{
		{Typ: 0, ID: 3, Add: true, Num: 10, Price: 99},
		{Typ: 1, ID: records + 1, Add: true, Num: 5, Price: 50},
	})
	st.DeleteCustomer(m, 8)
	if err := st.Check(m, records); err != nil {
		t.Fatalf("source store broken before compaction: %v", err)
	}

	// Dead weight the compactor must strand: raw allocations nothing
	// references, standing in for aborted-attempt leaks.
	for i := 0; i < 512; i++ {
		src.Alloc(8)
	}

	dst := mem.NewArena(1 << 16)
	dm := mem.Direct{A: dst}
	out := st.CompactInto(m, dm)

	if err := out.Check(dm, records); err != nil {
		t.Fatalf("compacted store fails invariants: %v", err)
	}
	wantFree, torn := st.QueryFree(m, items)
	if torn != 0 {
		t.Fatalf("source query torn=%d on a quiescent store", torn)
	}
	gotFree, torn := out.QueryFree(dm, items)
	if torn != 0 {
		t.Fatalf("compacted query torn=%d on a quiescent store", torn)
	}
	if gotFree != wantFree {
		t.Fatalf("compacted availability %d != source %d", gotFree, wantFree)
	}
	if dst.Used() >= src.Used() {
		t.Fatalf("compaction did not shrink: dst %d words >= src %d", dst.Used(), src.Used())
	}

	// The copy is deep: mutating the compacted store must not leak back.
	out.MakeReservation(dm, 9, items)
	afterFree, _ := st.QueryFree(m, items)
	if afterFree != wantFree {
		t.Fatalf("mutating the copy changed the source: %d -> %d", wantFree, afterFree)
	}
}

// insertStore builds NewStore's store with one RBTree.Insert per row: the
// reference NewStore must match word for word.
func insertStore(m tm.Mem, records int, seed uint64) Store {
	var st Store
	r := rng.New(seed ^ 0x696e6974)
	for t := 0; t < NumTypes; t++ {
		st.Tables[t] = container.NewRBTree(m)
		for id := 1; id <= records; id++ {
			rec := newReservation(m, id, r.Intn(300)+100, r.Intn(450)+50)
			st.Tables[t].Insert(m, uint64(id), uint64(rec))
		}
	}
	st.Customers = container.NewRBTree(m)
	for id := 1; id <= records; id++ {
		st.Customers.Insert(m, uint64(id), uint64(newCustomer(m)))
	}
	return st
}

// insertCompact compacts as CompactInto does, but with one RBTree.Insert per
// row and one sorted List.Insert per booking: the reference CompactInto must
// match word for word.
func (st *Store) insertCompact(src, dst tm.Mem) Store {
	var out Store
	for t := 0; t < NumTypes; t++ {
		out.Tables[t] = container.NewRBTree(dst)
		st.Tables[t].Each(src, func(id, recA uint64) bool {
			rec := mem.Addr(recA)
			nrec := dst.Alloc(resWords)
			for w := 0; w < resWords; w++ {
				dst.Store(nrec+mem.Addr(w), src.Load(rec+mem.Addr(w)))
			}
			out.Tables[t].Insert(dst, id, uint64(nrec))
			return true
		})
	}
	out.Customers = container.NewRBTree(dst)
	st.Customers.Each(src, func(id, custA uint64) bool {
		nl := container.NewList(dst)
		container.List{H: mem.Addr(custA)}.Each(src, func(k, v uint64) bool {
			nl.Insert(dst, k, v)
			return true
		})
		out.Customers.Insert(dst, id, uint64(nl.H))
		return true
	})
	return out
}

// TestBuildsAllocateNoGoHeapPerRow: NewStore and CompactInto keep only
// O(log n) Go memory (tree walks and loader spines), so a store 16 times
// larger costs at most a few more Go allocations, not one per row.
func TestBuildsAllocateNoGoHeapPerRow(t *testing.T) {
	allocs := func(records int) (build, compact float64) {
		src := mem.NewArena(StoreWords(records) + 1<<16)
		m := mem.Direct{A: src}
		st := NewStore(m, records, 1)
		for c := 1; c <= records; c++ {
			st.MakeReservation(m, c, []Item{{Typ: 0, ID: c}, {Typ: 1, ID: c}, {Typ: 2, ID: c}})
		}
		build = testing.AllocsPerRun(2, func() {
			NewStore(mem.Direct{A: mem.NewArena(StoreWords(records))}, records, 1)
		})
		compact = testing.AllocsPerRun(2, func() {
			st.CompactInto(m, mem.Direct{A: mem.NewArena(src.Used())})
		})
		return build, compact
	}
	b1, c1 := allocs(256)
	b2, c2 := allocs(4096)
	if b2 > b1+16 || c2 > c1+16 {
		t.Fatalf("Go allocations grow with the store: NewStore %v -> %v, CompactInto %v -> %v (256 -> 4096 records)",
			b1, b2, c1, c2)
	}
}

// sameArena fails the test unless a and b drew the same words and hold the
// same value in every one of them.
func sameArena(t *testing.T, what string, a, b *mem.Arena) {
	t.Helper()
	if a.Used() != b.Used() {
		t.Fatalf("%s: Used %d vs reference %d", what, b.Used(), a.Used())
	}
	for w := 0; w < a.Used(); w++ {
		if x, y := a.Load(mem.Addr(w)), b.Load(mem.Addr(w)); x != y {
			t.Fatalf("%s: word %d is %d, reference %d", what, w, y, x)
		}
	}
}

// TestNewStoreMatchesInsertBuild: the bulk-loaded store is word for word the
// store one Insert per row builds, so every transaction that runs on it —
// and every count taken of them — is unchanged.
func TestNewStoreMatchesInsertBuild(t *testing.T) {
	for _, records := range []int{1, 2, 3, 17, 1000, 4096} {
		words := StoreWords(records) + 1<<10
		ref, got := mem.NewArena(words), mem.NewArena(words)
		want := insertStore(mem.Direct{A: ref}, records, 42)
		if st := NewStore(mem.Direct{A: got}, records, 42); st != want {
			t.Fatalf("records=%d: table headers %+v, reference %+v", records, st, want)
		}
		sameArena(t, fmt.Sprintf("NewStore(%d)", records), ref, got)
	}
}

// TestCompactIntoMatchesInsertCompactor: after churn — bookings, customer
// deletions and re-creations, inventory added, retired and removed —
// CompactInto leaves word for word what the insert-based compactor leaves.
func TestCompactIntoMatchesInsertCompactor(t *testing.T) {
	const records = 512
	src := mem.NewArena(1 << 18)
	m := mem.Direct{A: src}
	st := NewStore(m, records, 7)
	r := rng.New(99)
	id := func() int { return r.Intn(records+32) + 1 } // some ids miss
	removed := 0
	for i := 0; i < 4000; i++ {
		switch op := r.Intn(10); {
		case op < 5:
			items := make([]Item, 4)
			for j := range items {
				items[j] = Item{Typ: r.Intn(NumTypes), ID: id()}
			}
			st.MakeReservation(m, id(), items)
		case op < 7:
			st.DeleteCustomer(m, id())
		default:
			u := Update{Typ: r.Intn(NumTypes), ID: id(), Add: r.Intn(2) == 0,
				Num: r.Intn(5) + 1, Price: r.Intn(450) + 50}
			recA, had := st.Tables[u.Typ].Get(m, uint64(u.ID))
			if rec := mem.Addr(recA); had && !u.Add && m.Load(rec+resUsed) == 0 {
				u.Num = int(m.Load(rec + resTotal)) // retire it all: the record goes
			}
			st.UpdateTables(m, []Update{u})
			if had && !st.Tables[u.Typ].Contains(m, uint64(u.ID)) {
				removed++
			}
		}
	}
	if err := st.Check(m, records); err != nil {
		t.Fatal(err)
	}
	booked := 0
	st.Customers.Each(m, func(_, custA uint64) bool {
		booked += container.List{H: mem.Addr(custA)}.Len(m)
		return true
	})
	if booked < 2*records || removed == 0 {
		t.Fatalf("churn booked %d reservations and removed %d records; too little to test", booked, removed)
	}

	ref, got := mem.NewArena(1<<17), mem.NewArena(1<<17)
	want := st.insertCompact(m, mem.Direct{A: ref})
	if out := st.CompactInto(m, mem.Direct{A: got}); out != want {
		t.Fatalf("table headers %+v, reference %+v", out, want)
	}
	sameArena(t, "CompactInto", ref, got)
}
