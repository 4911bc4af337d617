// Package norec implements the NOrec STM (Dalessandro, Spear & Scott,
// "NOrec: Streamlining STM by Abolishing Ownership Records", PPoPP 2010):
// a lazy-versioning STM whose only global metadata is a single sequence
// lock. There is no per-location lock table at all — conflicts are found by
// value-based validation of the read set, so the runtime trades TL2's
// lock-table cache pressure for revalidation work whenever the global clock
// moves. That trade wins exactly where the paper says it does: low thread
// counts and read-dominated workloads whose read sets rarely change value
// (vacation, genome), and it loses under heavy write commit rates, because
// every writeback is serialized through the one lock.
//
// The sequence lock protocol:
//
//   - seq even: no writeback in progress (quiescent).
//   - seq odd: exactly one committer holds the lock and is writing back.
//
// A transaction snapshots an even seq at begin. Every Load rechecks seq
// after reading memory; if it moved, the whole read set is revalidated by
// value against a new quiescent snapshot (mismatch => abort, match =>
// adopt the newer snapshot and continue). A writer commits by CAS-ing
// seq from its snapshot to snapshot+1 (acquiring the lock), writing its
// redo log back, and releasing with snapshot+2. Read-set validity at the
// moment the CAS succeeds follows from seq not having moved since the last
// validation, which gives opacity without any per-read version check.
//
// Read-only commits are free, as published: a transaction that stored
// nothing commits with no lock acquisition and no clock tick. Every Load
// already validated against a quiescent snapshot, so the read set was
// atomically valid at the last one, and the transaction serializes there.
// Only writers tick seq, so only writers force in-flight readers to
// revalidate.
//
// # Log-free first attempts of marked blocks
//
// The first attempt of a block registered through tm.NewROBlock keeps no
// read log — the seq-lock-only reader of TML (Transactional Mutex Locks).
// Its load is the write-filter test, the arena load and one seq == snapshot
// compare; a moved seq aborts the attempt with seq-changed instead of
// revalidating (there is nothing to revalidate). An attempt that stored
// nothing commits with no CAS and no tick, like any store-free commit.
//
// Opacity: every value such an attempt returns was read while seq equalled
// its even begin snapshot, so all of them belong to the one committed state
// at that snapshot, and the commit serializes the attempt there.
//
// The mark stays a hint: stores are buffered as usual, and the commit CASes
// from the begin snapshot — a log-free attempt cannot move its snapshot
// forward — so a failed CAS aborts with seq-changed. Every retry is an
// ordinary logged attempt, so a block aborts log-free at most once.
//
// The trade: a log-free attempt aborts on any writer commit that lands
// between its begin and its last load, including one that wrote nothing it
// read or wrote back the value it saw (value validation tolerates both). It
// buys back the read log's append per load.
package norec

import (
	"github.com/stamp-go/stamp/internal/mem"
	"github.com/stamp-go/stamp/internal/thread"
	"github.com/stamp-go/stamp/internal/tm"
	"github.com/stamp-go/stamp/internal/tm/chaos"
	"github.com/stamp-go/stamp/internal/tm/trace"
	"github.com/stamp-go/stamp/internal/tm/txset"
)

// System is one NOrec runtime instance. The entire shared state of the
// algorithm is the seq word; everything else is per-thread.
type System struct {
	*tm.Runtime[*norecTx]

	// seq is the global sequence lock: even = quiescent, odd = a committer
	// is writing back. It doubles as the version clock transactions
	// snapshot at begin. It is the hottest word in the system — every
	// writer commit CASes it and every in-flight reader polls it — so it
	// is padded onto its own cache line.
	seq tm.PaddedUint64
}

// New constructs the NOrec runtime ("stm-norec").
func New(cfg tm.Config) (*System, error) {
	rt, err := tm.NewRuntime[*norecTx]("stm-norec", cfg, tm.DefaultCM)
	if err != nil {
		return nil, err
	}
	s := &System{Runtime: rt}
	rt.Bind(func(int) *norecTx { return &norecTx{sys: s} })
	return s, nil
}

// Seq returns the current sequence-lock value (even = quiescent).
func (s *System) Seq() uint64 { return s.seq.Load() }

// LockAcquires returns how many commits acquired the sequence lock, summed
// over the workers (read after the team joins; each worker advances its
// own count): one per writer commit. A commit that stored nothing never
// contributes here.
func (s *System) LockAcquires() uint64 {
	var n uint64
	for _, x := range s.Txs {
		n += x.lockAcquires
	}
	return n
}

// waitQuiescent waits until seq is even and returns it. The waiter spins
// while every worker can hold a P and yields otherwise, so a committer that
// holds the lock can finish its writeback even when goroutines outnumber
// cores.
func (s *System) waitQuiescent() uint64 {
	w := thread.Waiter{Parties: s.Cfg.Threads}
	for {
		if v := s.seq.Load(); v&1 == 0 {
			return v
		}
		w.Pause()
	}
}

type norecTx struct {
	tm.TxCore
	sys *System

	snapshot uint64         // even seq value the read set is known valid at
	logFree  bool           // a marked block's first attempt: no read log (package doc)
	rset     txset.ReadSet  // value-validation log (NOrec validates by value)
	wset     txset.WriteSet // redo log (insertion order = writeback order)

	lockAcquires uint64 // sequence-lock acquisitions (owner written, read after join)

	_ [64]byte // keep the next worker's descriptor off this one's last line
}

// Begin snapshots a quiescent seq. A marked block's first attempt runs
// log-free — the same rule stm-mv uses for its snapshot path — and every
// retry runs logged, so progress never depends on a quiet clock.
func (x *norecTx) Begin(aborts int, readOnly bool) {
	x.logFree = aborts == 0 && readOnly
	x.snapshot = x.sys.waitQuiescent()
	x.rset.Reset()
	x.wset.Reset()
}

// Rollback has nothing to undo: NOrec holds no protocol state between
// attempts (writes are buffered, the lock is only held inside Commit). Its
// conflicts surface as value-validation failures with no identifiable
// enemy, so priority policies degrade to their delay behavior on this
// runtime, and conflict attribution blames no block — only the first stale
// address the revalidation pass tripped on is known.
func (x *norecTx) Rollback() {}

// Load implements the NOrec read barrier: write-buffer lookup (one inlined
// filter word rejects the common no-possible-hit case before any probing),
// then a read that is consistent with the snapshot — one arena load and one
// compare of seq against it. If the global clock moved since the snapshot,
// catchUp revalidates the whole read set by value before the read is
// retried, so a doomed transaction can never observe a mixed-epoch state
// (opacity). A log-free attempt skips the read log and cannot catch up.
func (x *norecTx) Load(a mem.Addr) uint64 {
	x.Loads++
	if x.wset.MayContain(a) {
		if v, ok := x.wset.Get(a); ok {
			return v
		}
	}
	v := x.Mem.Load(a)
	if x.sys.seq.Load() != x.snapshot {
		v = x.catchUp(a)
	}
	if !x.logFree {
		x.rset.Add(a, v)
	}
	return v
}

// catchUp is Load's slow path, taken when seq moved past the snapshot: it
// adopts a newer snapshot the read set is still valid at and rereads a
// there, or aborts with seq-changed. A log-free attempt always aborts — its
// unlogged reads are known valid only at the begin snapshot — and, knowing
// no stale address, blames none.
func (x *norecTx) catchUp(a mem.Addr) uint64 {
	if x.logFree {
		x.Info.Fail(tm.CauseSeqChanged, 0, tm.NoBlock)
	}
	for {
		s, bad, ok := x.revalidate()
		if !ok {
			x.Info.Fail(tm.CauseSeqChanged, trace.AddrKey(uint64(bad)), tm.NoBlock)
		}
		x.snapshot = s
		if v := x.Mem.Load(a); x.sys.seq.Load() == s {
			return v
		}
	}
}

// revalidate is NOrec's value-based validation: wait for a quiescent seq,
// re-read every read-set address, and succeed only if all values still
// match and seq did not move during the pass. On success the returned seq
// becomes the transaction's new snapshot; on failure bad is the first
// read-set address whose value no longer matches (the conflict-heatmap
// location — the only one NOrec can name, having no per-location metadata).
// The read set deduplicates consecutive re-reads, so this pass is
// O(distinct-ish addresses) rather than O(total loads) on re-read-heavy
// workloads.
func (x *norecTx) revalidate() (seq uint64, bad mem.Addr, ok bool) {
	for {
		t := x.sys.waitQuiescent()
		for _, r := range x.rset.Entries() {
			if x.Mem.Load(r.Addr) != r.Val {
				return 0, r.Addr, false
			}
		}
		if x.sys.seq.Load() == t {
			return t, 0, true
		}
	}
}

// Store implements the lazy write barrier: buffer the value.
func (x *norecTx) Store(a mem.Addr, v uint64) {
	x.Stores++
	x.wset.Put(a, v)
}

// EarlyRelease is a no-op: there is no per-location metadata to release,
// and dropping a read record would only skip one value comparison. Keeping
// the entry is always safe (value-based validation never manufactures false
// conflicts at word granularity).
func (x *norecTx) EarlyRelease(mem.Addr) {}

// Commit returns at once for an empty write set: every Load already
// validated against a quiescent snapshot, so the read set was atomically
// valid at that snapshot (see the package doc). A writer acquires the
// sequence lock (CAS even -> odd), writes the redo log back, and releases
// (snapshot+2). A failed CAS means some other writer ticked the clock: the
// read set is revalidated and the CAS retried from the newer snapshot. A
// log-free attempt that stored has no read log to revalidate, so its CAS
// must succeed from the begin snapshot or the attempt aborts.
func (x *norecTx) Commit() bool {
	if x.wset.Len() == 0 {
		return true
	}
	if x.Chaos.Fire(chaos.NorecValidate, x.ID) {
		// Failpoint: a spurious abort at writer-commit validation looks exactly
		// like a value-validation failure, so it carries that natural cause.
		// Read-only commits are exempt — they have nothing to starve on.
		x.Info.Set(tm.CauseSeqChanged, 0, tm.NoBlock)
		return false
	}
	for !x.sys.seq.CompareAndSwap(x.snapshot, x.snapshot+1) {
		if x.logFree {
			x.Info.Set(tm.CauseSeqChanged, 0, tm.NoBlock)
			return false
		}
		s, bad, ok := x.revalidate()
		if !ok {
			x.Info.Set(tm.CauseSeqChanged, trace.AddrKey(uint64(bad)), tm.NoBlock)
			return false
		}
		x.snapshot = s
	}
	x.lockAcquires++
	for _, e := range x.wset.Entries() {
		x.Mem.StoreOwned(e.Addr, e.Val)
	}
	// Failpoint: stall between writeback and the release tick — the window
	// where this committer holds the one global lock and everyone waits.
	x.Chaos.Stall(chaos.NorecSeqTick, x.ID)
	x.sys.seq.StoreRelease(x.snapshot + 2)
	return true
}
