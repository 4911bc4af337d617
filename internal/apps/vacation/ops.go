package vacation

import (
	"fmt"
	"sync"

	"github.com/stamp-go/stamp/internal/container"
	"github.com/stamp-go/stamp/internal/mem"
	"github.com/stamp-go/stamp/internal/rng"
	"github.com/stamp-go/stamp/internal/tm"
)

// NumTypes is the number of reservation tables (car, flight, room).
const NumTypes = numTypes

// Item names one reservation record a session touches: (table, id).
type Item struct {
	Typ int // reservation table: 0 car, 1 flight, 2 room
	ID  int
}

// Update is one inventory mutation of an update-tables session.
type Update struct {
	Typ   int
	ID    int
	Add   bool // grow (add seats / create record) vs retire
	Num   int
	Price int
}

// Store is the vacation database proper — the four red-black trees of
// manager_initialize — factored out of the batch App so the same operations
// can be served one request at a time by a long-lived server harness. Every
// method body is one transaction's worth of work: callers run it inside
// Thread.AtomicAt (or with mem.Direct for setup and offline checking).
type Store struct {
	Tables    [NumTypes]container.RBTree // id -> reservation record addr
	Customers container.RBTree           // id -> customer record addr (reservation list header)
}

// NewStore populates the four tables with records initial rows each, using
// the same RNG stream as the batch benchmark's Setup, so a served store and
// a batch run over equal seeds start from identical databases. Rows are
// loaded in ascending id order (container.RBLoader), which leaves the same
// arena words as inserting them one by one.
//
// Each table is one mem.Block carved from the arena, in the order a
// row-by-row build draws its header and rows, so every address is the one
// that build gives: a reservation table's block is its header plus records
// × 11 words (record, then tree node), the customers' block its header plus
// records × 8 (list header, then node). Once all four are carved they are
// filled at once, one goroutine each, each table's prices and seat counts
// drawn from the one stream jumped ahead to where the row-by-row build
// reaches that table. The goroutines write disjoint words, and NewStore
// returns once all are done, so the store is as if one goroutine had built
// it. The parameter is mem.Direct because that is the contract that makes
// this safe: nothing else touches the arena while NewStore runs.
func NewStore(d mem.Direct, records int, seed uint64) Store {
	if records < 1 {
		records = 1
	}
	// Every block is carved before any build starts, so a carve that does
	// not fit panics with no build running.
	var blocks [NumTypes + 1]*mem.Block
	for t := range blocks {
		words := 1 + records*(resWords+container.RBNodeWords)
		if t == NumTypes {
			words = 1 + records*(container.ListHeaderWords+container.RBNodeWords)
		}
		blocks[t] = d.A.Carve(words)
	}
	var st Store
	var wg sync.WaitGroup
	fill := func(b *mem.Block, build func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			words := b.Left()
			build()
			if b.Left() != 0 {
				panic(fmt.Sprintf("vacation: NewStore filled %d of a %d-word block", words-b.Left(), words))
			}
		}()
	}
	r := rng.New(seed ^ 0x696e6974)
	for t := 0; t < NumTypes; t++ {
		tr := *r
		r.Jump(2 * uint64(records)) // a row draws its seat count and price
		b := blocks[t]
		fill(b, func() {
			tl := container.NewRBLoader(b)
			for id := 1; id <= records; id++ {
				total := uint64(tr.Intn(300) + 100)
				rec := writeReservation(b, uint64(id), total, uint64(tr.Intn(450)+50))
				tl.Append(uint64(id), uint64(rec))
			}
			st.Tables[t] = tl.Finish()
		})
	}
	b := blocks[NumTypes]
	fill(b, func() {
		cl := container.NewRBLoader(b)
		for id := 1; id <= records; id++ {
			cust := container.NewListLoader(b) // newCustomer's empty list
			cl.Append(uint64(id), uint64(cust.Finish().H))
		}
		st.Customers = cl.Finish()
	})
	wg.Wait()
	return st
}

// StoreWords bounds the arena words NewStore allocates for records rows;
// per-operation slack is the caller's business (see App.ArenaWords for the
// batch sizing rule). The bound is deliberately loose: a tree node is
// counted as 8 words and a customer as 8 + 4, where NewStore draws 6 and
// 6 + 2 (an rb node and a 2-word list header). Keep it so: the server sizes
// its arena from this number, and so where its epoch swaps fall, and the
// surplus is headroom for the bookings and records requests add.
func StoreWords(records int) int {
	if records < 1 {
		records = 1
	}
	perRecord := resWords + 8 /* rb node (6 words) rounded up */
	perCustomer := 8 + 4      /* rb node (6) + list header (2), rounded up */
	return NumTypes*records*perRecord + records*perCustomer
}

// MakeReservation queries the priced availability of items and books the
// highest-priced available item of each type for customer cust, inserting
// the customer if needed — the original's CLIENT_DO_MAKE_RESERVATION as one
// transaction body.
func (st *Store) MakeReservation(tx tm.Mem, cust int, items []Item) {
	var bestID [NumTypes]int
	var bestPrice [NumTypes]int64
	for t := range bestPrice {
		bestPrice[t] = -1
		bestID[t] = -1
	}
	for _, it := range items {
		recA, ok := st.Tables[it.Typ].Get(tx, uint64(it.ID))
		if !ok {
			continue
		}
		rec := mem.Addr(recA)
		if tx.Load(rec+resFree) > 0 {
			price := int64(tx.Load(rec + resPrice))
			if price > bestPrice[it.Typ] {
				bestPrice[it.Typ] = price
				bestID[it.Typ] = it.ID
			}
		}
	}
	custKey := uint64(cust)
	custA, ok := st.Customers.Get(tx, custKey)
	if !ok {
		custA = uint64(newCustomer(tx))
		st.Customers.Insert(tx, custKey, custA)
	}
	custList := container.List{H: mem.Addr(custA)}
	for t := 0; t < NumTypes; t++ {
		if bestID[t] < 0 {
			continue
		}
		recA, ok := st.Tables[t].Get(tx, uint64(bestID[t]))
		if !ok {
			continue
		}
		rec := mem.Addr(recA)
		free := tx.Load(rec + resFree)
		if free == 0 {
			continue
		}
		if !custList.Insert(tx, itemKey(t, bestID[t]), tx.Load(rec+resPrice)) {
			continue // customer already holds this exact item
		}
		tx.Store(rec+resFree, free-1)
		tx.Store(rec+resUsed, tx.Load(rec+resUsed)+1)
	}
}

// DeleteCustomer releases all of cust's reservations and removes the
// customer — one transaction body. Unknown customers are a no-op.
func (st *Store) DeleteCustomer(tx tm.Mem, cust int) {
	custA, ok := st.Customers.Get(tx, uint64(cust))
	if !ok {
		return
	}
	custList := container.List{H: mem.Addr(custA)}
	custList.Each(tx, func(k, v uint64) bool {
		typ := int(k >> 32)
		id := k & 0xffffffff
		if recA, ok := st.Tables[typ].Get(tx, id); ok {
			rec := mem.Addr(recA)
			tx.Store(rec+resFree, tx.Load(rec+resFree)+1)
			tx.Store(rec+resUsed, tx.Load(rec+resUsed)-1)
		}
		return true
	})
	st.Customers.Remove(tx, uint64(cust))
}

// UpdateTables grows or shrinks the inventory — the original's
// CLIENT_DO_UPDATE_TABLES as one transaction body.
func (st *Store) UpdateTables(tx tm.Mem, updates []Update) {
	for _, it := range updates {
		recA, ok := st.Tables[it.Typ].Get(tx, uint64(it.ID))
		if it.Add {
			if ok {
				rec := mem.Addr(recA)
				tx.Store(rec+resFree, tx.Load(rec+resFree)+uint64(it.Num))
				tx.Store(rec+resTotal, tx.Load(rec+resTotal)+uint64(it.Num))
				tx.Store(rec+resPrice, uint64(it.Price))
			} else {
				rec := newReservation(tx, it.ID, it.Num, it.Price)
				st.Tables[it.Typ].Insert(tx, uint64(it.ID), uint64(rec))
			}
			continue
		}
		if !ok {
			continue
		}
		rec := mem.Addr(recA)
		free := tx.Load(rec + resFree)
		if free < uint64(it.Num) {
			continue // cannot retire seats that are in use
		}
		tx.Store(rec+resFree, free-uint64(it.Num))
		tx.Store(rec+resTotal, tx.Load(rec+resTotal)-uint64(it.Num))
		if tx.Load(rec+resTotal) == 0 {
			st.Tables[it.Typ].Remove(tx, uint64(it.ID))
		}
	}
}

// QueryFree sums the free inventory of items and checks each record's
// used+free==total accounting as seen by this transaction. It is the
// read-only operation of the serving harness: free is the availability
// total, torn counts records whose accounting was observed mid-update —
// which a serializable snapshot must never see, so any nonzero torn is a
// consistency violation, not load-dependent noise.
func (st *Store) QueryFree(tx tm.Mem, items []Item) (free uint64, torn int) {
	for _, it := range items {
		recA, ok := st.Tables[it.Typ].Get(tx, uint64(it.ID))
		if !ok {
			continue
		}
		rec := mem.Addr(recA)
		f := tx.Load(rec + resFree)
		if tx.Load(rec+resUsed)+f != tx.Load(rec+resTotal) {
			torn++
		}
		free += f
	}
	return free, torn
}

// CompactInto deep-copies the live store reachable through src into a fresh
// arena through dst, returning the rebuilt Store. This is the serving mode's
// epoch-swap compactor: only live records, customers, and their reservation
// lists are copied, so the destination arena's high-water restarts at the
// live set — everything the bump allocator leaked to aborted attempts and
// everything the free lists could not recycle is left behind in the source
// arena. Quiescent use only: dst is mem.Direct for the reason NewStore's
// parameter is.
//
// Every table and list is walked in ascending key order and rebuilt by
// appending (container.RBLoader, container.ListLoader), so the copy costs
// O(live) and its words are exactly those that inserting the same rows one
// by one would leave. The copy is written through one mem.Block over the
// rest of dst's arena, whose undrawn tail is given back at the end, so
// dst's Used is what the row-by-row copy leaves.
func (st *Store) CompactInto(src tm.Mem, dst mem.Direct) Store {
	var out Store
	b := dst.A.Carve(dst.A.Cap() - dst.A.Used())
	for t := 0; t < NumTypes; t++ {
		tl := container.NewRBLoader(b)
		st.Tables[t].Each(src, func(id, recA uint64) bool {
			rec := mem.Addr(recA)
			nrec := b.Alloc(resWords)
			for w := mem.Addr(0); w < resWords; w++ {
				b.Store(nrec+w, src.Load(rec+w))
			}
			tl.Append(id, uint64(nrec))
			return true
		})
		out.Tables[t] = tl.Finish()
	}
	cl := container.NewRBLoader(b)
	st.Customers.Each(src, func(id, custA uint64) bool {
		ll := container.NewListLoader(b)
		container.List{H: mem.Addr(custA)}.Each(src, func(k, v uint64) bool {
			ll.Append(k, v)
			return true
		})
		cl.Append(id, uint64(ll.Finish().H))
		return true
	})
	out.Customers = cl.Finish()
	b.Trim()
	return out
}

// Check verifies the store's conserved invariants quiescently (no
// concurrent transactions): per-record accounting (used + free == total)
// cross-checked against a global recount of all customer reservation lists.
// records > 0 additionally requires every table to be non-empty.
func (st *Store) Check(m tm.Mem, records int) error {
	booked := map[uint64]uint64{}
	st.Customers.Each(m, func(_, custA uint64) bool {
		l := container.List{H: mem.Addr(custA)}
		l.Each(m, func(k, _ uint64) bool {
			booked[k]++
			return true
		})
		return true
	})
	for t := 0; t < NumTypes; t++ {
		var err error
		seen := 0
		st.Tables[t].Each(m, func(id, recA uint64) bool {
			seen++
			rec := mem.Addr(recA)
			used := m.Load(rec + resUsed)
			free := m.Load(rec + resFree)
			total := m.Load(rec + resTotal)
			if used+free != total {
				err = fmt.Errorf("vacation: table %d id %d: used %d + free %d != total %d",
					t, id, used, free, total)
				return false
			}
			if got := booked[itemKey(t, int(id))]; got != used {
				err = fmt.Errorf("vacation: table %d id %d: used %d but %d customer bookings",
					t, id, used, got)
				return false
			}
			delete(booked, itemKey(t, int(id)))
			return true
		})
		if err != nil {
			return err
		}
		if seen == 0 && records > 0 {
			return fmt.Errorf("vacation: table %d is empty", t)
		}
	}
	// Any remaining booked entries reference deleted records: those bookings
	// must be zero-count (cannot happen: UpdateTables only deletes records
	// with total == 0, i.e. free == used == 0 given the invariant above).
	for k, n := range booked {
		if n != 0 {
			return fmt.Errorf("vacation: %d bookings reference missing record %#x", n, k)
		}
	}
	return nil
}
