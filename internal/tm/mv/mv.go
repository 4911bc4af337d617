// Package mv implements stm-mv, a multi-version STM for abort-free
// read-only traffic. Writers are TL2 itself — the transaction embeds
// tl2.LazyTx and shares its versioned-lock table, commit clock
// (tl2.Clock) and commit phases — and, from the first snapshot
// reader on, additionally append every committed value to a bounded
// per-stripe ring of (version, address, value) records between acquiring
// their stripes and writing back. Read-only
// transactions pick a snapshot timestamp at begin and serve every load
// from that snapshot: the arena when the stripe has not been committed
// past the snapshot, the version ring when it has. Snapshot reads perform
// zero commit-time validation, acquire zero locks, and never abort a
// writer or get aborted by one; their only abort is CauseMVVersionMissing,
// raised when the snapshot predates every version of a location the ring
// still retains (ring overflow — tm.Config.MVVersions sizes the ring, and
// a depth of 1 degrades to single-version TL2-like behavior).
//
// # Which transactions read the snapshot
//
// Atomic blocks registered through tm.NewROBlock begin on the snapshot
// path. The mark is a hint, not a contract: snapshot attempts still record
// their read stripes, so a marked block that stores falls through to the
// ordinary write-path commit, where a ring-served (older-than-memory) read
// simply fails read validation and the block retries on the write path
// with a fresh snapshot. Unmarked blocks run plain TL2.
//
// # Why snapshot reads are consistent (opacity)
//
// Every load of a snapshot attempt returns the newest value of its address
// with version <= rv, the begin timestamp, so the whole attempt observes
// the committed state at rv:
//
//   - A locked stripe is a commit in flight. The reader waits it out
//     (waiting is not aborting) — this also excludes the one dangerous
//     window where a writer has ticked the clock but not yet published its
//     writeback. Once unlocked, every version <= rv is fully published,
//     and any later lock holder commits with wv > rv (clock monotonicity:
//     a CommitTick after the reader's Begin exceeds rv).
//   - An unlocked stripe at version <= rv: the arena holds the newest
//     value, whose version is <= rv. Re-reading the lock word after the
//     arena load rejects the race where a writer locked in between.
//   - An unlocked stripe at version > rv: the ring is scanned for the
//     newest record of the address with version <= rv. Per-stripe versions
//     strictly increase (the TL2 acquire guard plus clock monotonicity),
//     so a ring's records for one address appear oldest-first and FIFO
//     eviction removes them oldest-first: if any record of the address
//     with version <= rv survives, the maximum such record is exactly the
//     newest one; otherwise the scan misses and the reader aborts
//     conservatively with mv-version-missing. Re-reading the lock word
//     after the scan discards scans that raced a committing writer's
//     appends or evictions.
//
// The first ring-era write to an address also appends a pre-image record
// (the overwritten arena value at the stripe's pre-commit version), so a
// snapshot that began before the address was ever ring-written can still
// be served.
//
// # Versions are retained from the first snapshot reader on
//
// A ring record is only ever read by a snapshot attempt, and most workloads
// register no read-only block at all, so rings start off: New allocates no
// ring slab, and while the rings pointer is nil no commit maintains one.
// The first snapshot attempt's Begin allocates the slab, exactly once
// (racing first readers serialize on a sync.Once, and the losers find it
// published), and publishes it before it reads its snapshot clock; every
// writer loads the pointer after its CommitTick and skips ring maintenance
// while it reads nil. No record is written while rings are off, so every
// ring is empty at turn-on, and the pre-image record starts it at its
// stripe's next commit. No reader loses a version to the skipped appends:
// the pointer is sequentially consistent, so a commit that read nil ticked
// before the first reader published the slab, hence before that reader (and
// every later one) read the clock — CommitTick leaves the clock at >= wv, so
// its wv <= rv, and a version the snapshot admits is served from the arena,
// never from the ring. A snapshot that meets an address whose wrapped
// stripe (tl2.LockTable.Index) a later commit advanced while writing
// another address finds no record and aborts mv-version-missing,
// conservatively (it retries on the write path), never wrongly.
//
// Ring memory is therefore paid from turn-on, not from New: 0 bytes until
// the first snapshot reader, then stripes × (MVVersions+1) × 24 B for the
// rest of the system's life. The stripe table is TL2's, sized by
// tl2.TableBits, so the slab is at most 2^16 runs (13.5 MiB at the default
// depth); arenas beyond 2^16 words wrap onto it, and addresses that share
// a stripe share its ring, which the pre-image records keep correct.
package mv

import (
	"sync"
	"sync/atomic"

	"github.com/stamp-go/stamp/internal/mem"
	"github.com/stamp-go/stamp/internal/thread"
	"github.com/stamp-go/stamp/internal/tm"
	"github.com/stamp-go/stamp/internal/tm/chaos"
	"github.com/stamp-go/stamp/internal/tm/tl2"
	"github.com/stamp-go/stamp/internal/tm/trace"
)

// slot is one 24-byte cell of a stripe's run. A run is a header cell
// followed by k record cells, contiguous, so a committed write touches one
// run of memory per stripe.
//
// In a record cell, version holds the record's commit version biased by +1
// (0 = empty), so pre-image records at stripe version 0 are representable.
// The header cell uses only head, the index of the record the next append
// overwrites; head is written only by the stripe-lock holder (the lock
// word's release/acquire chain orders the holders) and readers never touch
// it — they scan every record.
//
// Writers store a record's fields only while holding the stripe lock,
// between a successful Acquire and Release(wv), and never mark it
// mid-write: snapshot readers read the stripe's lock word unlocked before
// a scan and re-check it unchanged after, and a scan that saw any store of
// an overlapping append also sees the lock CAS that preceded it (the
// atomics are sequentially consistent) — the word then reads locked, or
// released at wv, which exceeds the version read before. Every torn record
// is discarded by that recheck, which is why the fields are atomics but
// carry no per-record seqlock.
type slot struct {
	version atomic.Uint64
	val     atomic.Uint64
	addr    atomic.Uint32
	head    uint32
}

// System is the stm-mv runtime.
type System struct {
	*tm.Runtime[*mvTx]
	clock *tl2.Clock
	locks *tl2.LockTable // the unit of conflict detection and version retention
	k     int            // ring depth (Config.MVVersions)

	// rings is the ring slab — stripe i's run is (*rings)[i*(k+1)], the
	// header, then k records. It is nil until the first snapshot attempt
	// begins (rings off: no commit appends), then set once, by ringsOnce,
	// for the rest of the system's life.
	rings     atomic.Pointer[[]slot]
	ringsOnce sync.Once
}

// New constructs the stm-mv runtime.
func New(cfg tm.Config) (*System, error) {
	rt, err := tm.NewRuntime[*mvTx]("stm-mv", cfg, tm.DefaultCM)
	if err != nil {
		return nil, err
	}
	clock := new(tl2.Clock)
	locks := tl2.NewLockTable(tl2.TableBits(rt.Cfg.Arena.Cap()))
	s := &System{
		Runtime: rt,
		clock:   clock,
		locks:   locks,
		k:       rt.Cfg.MVVersions,
	}
	rt.Bind(func(int) *mvTx { return &mvTx{LazyTx: tl2.LazyTx{Locks: locks, Clock: clock}, sys: s} })
	return s, nil
}

// index maps a word address to its stripe.
func (s *System) index(a mem.Addr) uint32 { return s.locks.Index(a) }

// turnRingsOn allocates and publishes the ring slab, once for the system's
// life; a caller racing the allocation returns after it is published.
func (s *System) turnRingsOn() {
	s.ringsOnce.Do(func() {
		slab := make([]slot, s.locks.Stripes()*(s.k+1))
		s.rings.Store(&slab)
	})
}

// run returns stripe idx's ring header and its k records in slab.
func (s *System) run(slab []slot, idx uint32) (hdr *slot, recs []slot) {
	r := slab[int(idx)*(s.k+1):][:s.k+1]
	return &r[0], r[1:]
}

// Stripes returns the stripe count of this instance's lock table.
func (s *System) Stripes() int { return s.locks.Stripes() }

// RingDepth returns the per-stripe ring depth (Config.MVVersions resolved).
func (s *System) RingDepth() int { return s.k }

// LockAcquires returns how many stripe-lock acquisitions the run performed
// across all threads. Snapshot (read-only) transactions never acquire a
// stripe lock, which ThreadLockAcquires pins per thread — the headline
// snapshot-path assertion.
func (s *System) LockAcquires() uint64 {
	var n uint64
	for _, x := range s.Txs {
		n += x.LockAcquires
	}
	return n
}

// ThreadLockAcquires returns thread id's stripe-lock acquisition count
// (read after the team joins; the worker itself advances it).
func (s *System) ThreadLockAcquires(id int) uint64 { return s.Txs[id].LockAcquires }

// ringScan returns the newest ring record of address a with version <= rv
// in stripe idx. The caller must have read the stripe lock word unlocked
// before the scan and must re-check it unchanged afterwards before acting
// on the result — that recheck is what discards scans that raced a
// committing writer's appends or evictions (see slot). The rings must be
// on: the caller is a snapshot attempt, whose Begin turned them on.
func (s *System) ringScan(idx uint32, a mem.Addr, rv uint64) (val uint64, ok bool) {
	_, recs := s.run(*s.rings.Load(), idx)
	var best uint64 // biased: record version + 1
	for i := range recs {
		sl := &recs[i]
		v1 := sl.version.Load()
		if v1 == 0 || v1 > rv+1 || v1 <= best || mem.Addr(sl.addr.Load()) != a {
			continue
		}
		best, val = v1, sl.val.Load()
	}
	return val, best != 0
}

// ringHas reports whether recs retains any record of address a. Caller
// holds the stripe lock.
func ringHas(recs []slot, a mem.Addr) bool {
	for i := range recs {
		if recs[i].version.Load() != 0 && mem.Addr(recs[i].addr.Load()) == a {
			return true
		}
	}
	return false
}

// ringAppend writes one record (biased version) at the ring head and
// advances it, evicting the oldest record. Caller holds the stripe lock.
func ringAppend(hdr *slot, recs []slot, biased uint64, a mem.Addr, val uint64) {
	sl := &recs[hdr.head]
	sl.addr.Store(uint32(a))
	sl.val.Store(val)
	sl.version.Store(biased)
	hdr.head++
	if int(hdr.head) == len(recs) {
		hdr.head = 0
	}
}

// mvTx is a TL2 lazy transaction plus the snapshot read path and the
// commit-time ring appends. Its own fields come first, so the embedded
// LazyTx's trailing pad still ends the descriptor.
type mvTx struct {
	sys *System
	ro  bool // this attempt reads the begin-timestamp snapshot
	tl2.LazyTx
}

// Begin starts a marked block's first attempt on the snapshot path; after
// any abort (a store inside the marked block failing write-path validation
// against its ring-age snapshot, or a ring overflow) the retry runs plain
// TL2 so progress never depends on ring retention. The first snapshot
// attempt of the system's life turns the rings on, before it reads the
// clock (see "Versions are retained from the first snapshot reader on").
func (x *mvTx) Begin(aborts int, readOnly bool) {
	x.ro = aborts == 0 && readOnly
	if x.ro && x.sys.rings.Load() == nil {
		x.sys.turnRingsOn()
	}
	x.LazyTx.Begin(aborts, readOnly)
}

// Load is the read barrier: the TL2 validated read, or for snapshot attempts
// the write-buffer lookup and then the snapshot read. Stores stay legal on
// snapshot attempts: their recorded reads make the write-path commit
// validation sound, at the cost of an abort when a ring-served read is older
// than memory.
func (x *mvTx) Load(a mem.Addr) uint64 {
	if !x.ro {
		return x.LazyTx.Load(a)
	}
	x.Loads++
	if x.Wset.MayContain(a) {
		if v, ok := x.Wset.Get(a); ok {
			return v
		}
	}
	return x.snapshotLoad(x.Locks.Index(a), a)
}

// snapshotLoad serves a load at the begin timestamp without ever acquiring
// a lock or aborting a writer: wait out in-flight commits, read the arena
// when the stripe has not moved past rv, fall back to the version ring
// when it has. The only abort is mv-version-missing: the ring overflowed,
// or never retained the version (see the package doc).
func (x *mvTx) snapshotLoad(idx uint32, a mem.Addr) uint64 {
	w := thread.Waiter{Parties: x.Cfg.Threads}
	for {
		e1 := x.Locks.Load(idx)
		if _, locked := tl2.LockedBy(e1); locked {
			// A writer is committing this stripe. Waiting (not aborting)
			// both preserves the zero-abort property and excludes the
			// committer that ticked wv <= rv but has not published yet.
			w.Pause()
			continue
		}
		if tl2.VersionOf(e1) <= x.RV {
			v := x.Mem.Load(a)
			if x.Locks.Load(idx) != e1 {
				continue // a writer locked mid-read; retry
			}
			x.Reads.Add(idx)
			return v
		}
		// Committed past the snapshot: the ring is the only source.
		v, ok := x.sys.ringScan(idx, a, x.RV)
		if x.Locks.Load(idx) != e1 {
			continue // the ring mutated under the scan; rescan
		}
		if !ok {
			x.Info.Fail(tm.CauseMVVersionMissing, trace.AddrKey(uint64(a)), tm.NoBlock)
		}
		x.Reads.Add(idx)
		return v
	}
}

// Commit is the TL2 commit — lock the write set, tick the clock, validate
// the read set, write back, release with the new version — plus, once a
// snapshot reader has begun, the ring appends that retain the overwritten
// history for snapshot readers. Read-only transactions (snapshot or not)
// commit with zero validation.
func (x *mvTx) Commit() bool {
	if x.Wset.Len() == 0 {
		return true
	}
	wv, ok := x.Acquire()
	if !ok {
		return false
	}
	// Ring maintenance, before the writeback so pre-image records can read
	// the overwritten values, while every written stripe is still locked
	// (snapshot readers wait on the lock, so append order is invisible).
	// The slab pointer is loaded after Acquire's CommitTick: that order is
	// what makes skipping the appends while rings are off safe.
	if slab := x.sys.rings.Load(); slab != nil {
		x.appendVersions(*slab, wv)
	}
	x.WriteBack()
	// Failpoint: stall after ring publication and writeback, while every
	// written stripe is still locked and snapshot readers wait on us.
	x.Chaos.Stall(chaos.MVRingPublish, x.ID)
	x.Release(wv)
	return true
}

// appendVersions retains the write set's committed values (and, on an
// address's first ring-era write, its pre-image) in the stripe rings.
// Caller holds every written stripe at commit version wv.
func (x *mvTx) appendVersions(slab []slot, wv uint64) {
	for _, e := range x.Wset.Entries() {
		idx := x.Locks.Index(e.Addr)
		hdr, recs := x.sys.run(slab, idx)
		if !ringHas(recs, e.Addr) {
			// First ring-era write to this address: retain the pre-image
			// from the stripe's pre-commit version, so snapshots older
			// than this commit can still be served.
			ringAppend(hdr, recs, x.OldVersion(idx)+1, e.Addr, x.Mem.Load(e.Addr))
		}
		ringAppend(hdr, recs, wv+1, e.Addr, e.Val)
	}
}
