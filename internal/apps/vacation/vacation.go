// Package vacation implements STAMP's vacation benchmark: an online
// transaction processing system emulating a travel reservation service
// (the suite's analogue of SPECjbb2000). The database is a set of red-black
// trees — one table per reservation type (car, flight, room) plus a
// customer table — and every client session (reservation, cancellation, or
// table update) executes as one coarse-grain transaction. Transactions are
// of medium length with moderate read/write sets, most of the execution is
// transactional, and contention is tuned by the -n/-q/-u parameters.
package vacation

import (
	"github.com/stamp-go/stamp/internal/container"
	"github.com/stamp-go/stamp/internal/mem"
	"github.com/stamp-go/stamp/internal/rng"
	"github.com/stamp-go/stamp/internal/thread"
	"github.com/stamp-go/stamp/internal/tm"
)

// Atomic-block call sites, registered once for per-block statistics
// attribution (tm.Stats.Blocks).
var (
	blkReserve = tm.NewBlock("vacation/make-reservation")
	blkDelete  = tm.NewBlock("vacation/delete-customer")
	blkUpdate  = tm.NewBlock("vacation/update-tables")
)

// Config mirrors the Table IV arguments.
type Config struct {
	QueriesPerTx int // -n: items examined per session
	QueryRange   int // -q: sessions span q% of the records
	PercentUser  int // -u: % of sessions that reserve/cancel (rest update tables)
	Records      int // -r: records per reservation table (and customers)
	Transactions int // -t: total sessions
	Seed         uint64
}

// Reservation record layout (arena): one per (table, id).
const (
	resID    = 0
	resUsed  = 1
	resFree  = 2
	resTotal = 3
	resPrice = 4
	resWords = 5
)

// Reservation types.
const (
	typeCar = iota
	typeFlight
	typeRoom
	numTypes
)

// App is one vacation instance.
type App struct {
	cfg Config

	store Store // the four tables (see ops.go for the operation bodies)

	// Pre-generated per-session scripts so every system executes the same
	// logical workload.
	sessions []session
}

type session struct {
	kind    int // 0 reserve, 1 delete customer, 2 update tables
	cust    int
	items   []Item   // reserve sessions
	updates []Update // update sessions
}

// New pre-generates the session scripts.
func New(cfg Config) *App {
	if cfg.QueriesPerTx < 1 {
		cfg.QueriesPerTx = 1
	}
	if cfg.Records < 1 {
		cfg.Records = 1
	}
	a := &App{cfg: cfg}
	r := rng.New(cfg.Seed ^ 0x766163)
	queryRange := cfg.Records * cfg.QueryRange / 100
	if queryRange < 1 {
		queryRange = 1
	}
	// Every reserve session has QueriesPerTx items and every update session
	// QueriesPerTx updates, so each kind appends to one backing array and a
	// session slices its own out of it. The arrays start at the expected
	// count plus a margin far beyond its spread; a count past that regrows
	// them, and the sessions already sliced keep the old array.
	n := cfg.QueriesPerTx
	deleteBelow := cfg.PercentUser + (100-cfg.PercentUser)/2
	a.sessions = make([]session, max(cfg.Transactions, 0))
	expect := func(percent int) int {
		e := len(a.sessions) * percent / 100
		return n * max(e+e/16+16, 0)
	}
	items := make([]Item, 0, expect(cfg.PercentUser))
	updates := make([]Update, 0, expect(100-deleteBelow))
	for s := range a.sessions {
		ses := &a.sessions[s]
		action := r.Intn(100)
		switch {
		case action < cfg.PercentUser:
			ses.kind = 0
			ses.cust = r.Intn(queryRange) + 1
			for i := 0; i < n; i++ {
				items = append(items, Item{
					Typ: r.Intn(numTypes),
					ID:  r.Intn(queryRange) + 1,
				})
			}
			ses.items = items[len(items)-n : len(items) : len(items)]
		case action < deleteBelow:
			ses.kind = 1
			ses.cust = r.Intn(queryRange) + 1
		default:
			ses.kind = 2
			for i := 0; i < n; i++ {
				updates = append(updates, Update{
					Typ:   r.Intn(numTypes),
					ID:    r.Intn(queryRange) + 1,
					Add:   r.Intn(2) == 0,
					Num:   r.Intn(5) + 1,
					Price: r.Intn(450) + 50,
				})
			}
			ses.updates = updates[len(updates)-n : len(updates) : len(updates)]
		}
	}
	return a
}

// Name implements apps.App.
func (a *App) Name() string { return "vacation" }

// ArenaWords implements apps.App: trees, records, customer lists, and slack
// for the records and list nodes sessions create. Aborted attempts'
// allocations do not leak (each worker's mem.Reserver takes them back for
// its retry), so the slack is headroom, not retry churn. As in StoreWords,
// a tree node is counted as 8 words and a customer as 8 + 4 where NewStore
// draws 6 and 6 + 2: deliberate upper bounds. The surplus is headroom for
// the list nodes and records Run adds, and words never drawn cost only
// address space (mem.NewArena).
func (a *App) ArenaWords() int {
	perRecord := resWords + 8 /* rb node (6 words) rounded up */
	perCustomer := 8 + 4      /* rb node (6) + list header (2), rounded up */
	slack := a.cfg.Transactions * (a.cfg.QueriesPerTx + 2) * 40
	return numTypes*a.cfg.Records*perRecord + a.cfg.Records*perCustomer + slack + 1<<16
}

// Setup implements apps.App: populates the four tables, as in
// manager_initialize (see NewStore).
func (a *App) Setup(ar *mem.Arena) {
	a.store = NewStore(mem.Direct{A: ar}, a.cfg.Records, a.cfg.Seed)
}

func newReservation(m tm.Mem, id, total, price int) mem.Addr {
	rec := m.Alloc(resWords)
	m.Store(rec+resID, uint64(id))
	m.Store(rec+resUsed, 0)
	m.Store(rec+resFree, uint64(total))
	m.Store(rec+resTotal, uint64(total))
	m.Store(rec+resPrice, uint64(price))
	return rec
}

// newCustomer allocates a customer record: a list of (type<<32|id) ->
// booked price.
func newCustomer(m tm.Mem) mem.Addr {
	return container.NewList(m).H
}

func itemKey(typ, id int) uint64 { return uint64(typ)<<32 | uint64(id) }

// Run implements apps.App: threads split the session scripts and run each
// session as one transaction.
func (a *App) Run(sys tm.System, team *thread.Team) {
	n := len(a.sessions)
	team.Run(func(tid int) {
		th := sys.Thread(tid)
		lo, hi := tid*n/team.N(), (tid+1)*n/team.N()
		for s := lo; s < hi; s++ {
			ses := &a.sessions[s]
			switch ses.kind {
			case 0:
				a.makeReservation(th, ses)
			case 1:
				a.deleteCustomer(th, ses)
			case 2:
				a.updateTables(th, ses)
			}
		}
	})
}

// makeReservation runs the session's reservation as one transaction (see
// Store.MakeReservation).
func (a *App) makeReservation(th tm.Thread, ses *session) {
	th.AtomicAt(blkReserve, func(tx tm.Tx) {
		a.store.MakeReservation(tx, ses.cust, ses.items)
	})
}

// deleteCustomer runs the session's cancellation as one transaction (see
// Store.DeleteCustomer).
func (a *App) deleteCustomer(th tm.Thread, ses *session) {
	th.AtomicAt(blkDelete, func(tx tm.Tx) {
		a.store.DeleteCustomer(tx, ses.cust)
	})
}

// updateTables runs the session's inventory mutations as one transaction
// (see Store.UpdateTables).
func (a *App) updateTables(th tm.Thread, ses *session) {
	th.AtomicAt(blkUpdate, func(tx tm.Tx) {
		a.store.UpdateTables(tx, ses.updates)
	})
}

// Verify implements apps.App: per-record accounting (used + free == total),
// cross-checked against a global recount of all customer reservation lists
// (see Store.Check).
func (a *App) Verify(ar *mem.Arena) error {
	return a.store.Check(mem.Direct{A: ar}, a.cfg.Records)
}
