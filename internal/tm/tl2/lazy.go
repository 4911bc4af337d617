package tl2

import (
	"github.com/stamp-go/stamp/internal/mem"
	"github.com/stamp-go/stamp/internal/thread"
	"github.com/stamp-go/stamp/internal/tm"
	"github.com/stamp-go/stamp/internal/tm/chaos"
	"github.com/stamp-go/stamp/internal/tm/trace"
	"github.com/stamp-go/stamp/internal/tm/txset"
)

// Lazy is the TL2 lazy STM: speculative writes go to a software write
// buffer, conflicts are detected with a global version clock and per-stripe
// versioned locks, and the write set is locked only at commit. Reads
// validate against the transaction's read version on every load, so doomed
// transactions never observe inconsistent state (opacity).
//
// The two shared serial points are the fetch-add version clock (Clock)
// and the stripe table, sized from the arena (see TableBits).
type Lazy struct {
	*tm.Runtime[*LazyTx]
	locks *LockTable
	clock *Clock
}

// NewLazy constructs the lazy STM.
func NewLazy(cfg tm.Config) (*Lazy, error) {
	rt, err := tm.NewRuntime[*LazyTx]("stm-lazy", cfg, tm.DefaultCM)
	if err != nil {
		return nil, err
	}
	s := &Lazy{Runtime: rt, locks: NewLockTable(TableBits(rt.Cfg.Arena.Cap())), clock: new(Clock)}
	rt.Bind(func(int) *LazyTx { return &LazyTx{Locks: s.locks, Clock: s.clock} })
	return s, nil
}

// Stripes returns the stripe count of this instance's lock table.
func (s *Lazy) Stripes() int { return s.locks.Stripes() }

// LazyTx is the TL2 lazy transaction: stm-lazy's whole protocol, and the
// writer half of stm-mv (which embeds it, adds the snapshot read path, and
// splices its ring appends between the exported commit phases).
type LazyTx struct {
	tm.TxCore
	Locks *LockTable
	Clock *Clock

	RV    uint64         // read version: the clock at begin
	Reads txset.IndexSet // stripe indices for commit-time validation
	Wset  txset.WriteSet // redo log (insertion order = writeback order)

	// LockAcquires counts this worker's stripe-lock acquisitions (owner
	// written, read after join).
	LockAcquires uint64

	acquired []lockRec

	_ [64]byte // keep the next worker's descriptor off this one's last line
}

// Begin implements tm.Protocol.
func (x *LazyTx) Begin(int, bool) {
	x.RV = x.Clock.Begin()
	x.Reads.Reset()
	x.Wset.Reset()
	x.acquired = x.acquired[:0]
}

// Rollback has nothing to undo: locks are only held inside Commit, which
// releases them itself on failure.
func (x *LazyTx) Rollback() {}

// Load implements the TL2 read barrier: write-buffer lookup first (the cost
// the paper calls out for lazy STM read barriers — the inlined txset write
// filter reduces it to one multiply and a branch when the buffer cannot
// hit), then a validated read.
func (x *LazyTx) Load(a mem.Addr) uint64 {
	x.Loads++
	if x.Wset.MayContain(a) {
		if v, ok := x.Wset.Get(a); ok {
			return v
		}
	}
	idx := x.Locks.Index(a)
	e1 := x.Locks.Load(idx)
	w := thread.Waiter{Parties: x.Cfg.Threads}
	for {
		owner, locked := LockedBy(e1)
		if !locked {
			break
		}
		// Conflict point: the stripe is locked by a committing writer.
		// Arbitrate — requester-loses policies abort here; priority
		// policies may wait the (short) commit out and re-probe.
		x.Conflict(int(owner), tm.CauseStripeLockBusy, trace.AddrKey(uint64(a)), &w)
		e1 = x.Locks.Load(idx)
	}
	v := x.Mem.Load(a)
	e2 := x.Locks.Load(idx)
	if e2 != e1 || VersionOf(e1) > x.RV {
		x.Info.Fail(tm.CauseReadValidation, trace.AddrKey(uint64(a)), tm.NoBlock)
	}
	x.Reads.Add(idx)
	return v
}

// Store implements the lazy write barrier: buffer the value.
func (x *LazyTx) Store(a mem.Addr, v uint64) {
	x.Stores++
	x.Wset.Put(a, v)
}

// EarlyRelease is a no-op: TL2's commit-time validation makes removal of
// individual read entries unnecessary for the workloads that use it (the
// paper notes STMs avoid early release in labyrinth by using uninstrumented
// reads instead, which is what Peek provides).
func (x *LazyTx) EarlyRelease(mem.Addr) {}

// Commit performs the TL2 commit: lock the write set, increment the global
// clock, validate the read set, write back, release with the new version.
func (x *LazyTx) Commit() bool {
	if x.Wset.Len() == 0 {
		return true // read-only transactions were validated on every read
	}
	wv, ok := x.Acquire()
	if !ok {
		return false
	}
	x.WriteBack()
	// Failpoint: stall between writeback and release — the window where this
	// transaction holds every write-set stripe lock and peers pile up on it.
	x.Chaos.Stall(chaos.TL2LockRelease, x.ID)
	x.Release(wv)
	return true
}

// Acquire runs the first two commit phases: lock every write-set stripe,
// then tick the clock and validate the read set. On success the caller
// holds the stripes and wv is the commit version to Release them at; on
// failure the abort registers are stamped and no stripe is held.
func (x *LazyTx) Acquire() (wv uint64, ok bool) {
	// Failpoint: a spurious abort at lock acquisition looks exactly like
	// losing a writer-writer race, so it carries that site's natural cause.
	if x.Chaos.Fire(chaos.TL2LockAcquire, x.ID) {
		x.Info.Set(tm.CauseWriteWrite, 0, tm.NoBlock)
		return 0, false
	}
	slot := uint64(x.ID)
	for _, e := range x.Wset.Entries() {
		idx := x.Locks.Index(e.Addr)
		lw := x.Locks.Load(idx)
		blame := tm.NoBlock
		if owner, locked := LockedBy(lw); locked {
			if owner == slot {
				continue // stripe already acquired (another word, same stripe)
			}
			blame = x.BlockOf(int(owner))
		} else if VersionOf(lw) <= x.RV && x.Locks.cas(idx, lw, slot<<1|1) {
			x.LockAcquires++
			x.acquired = append(x.acquired, lockRec{idx: idx, old: lw})
			continue
		}
		// Held by a peer, lost the CAS to one, or committed past our
		// snapshot. Acquiring a stripe newer than RV would hide that from
		// read-set validation (a self-locked stripe validates trivially), so
		// abort instead — the standard TL2 guard, slightly conservative for
		// blind writes. It is also what keeps per-stripe versions strictly
		// increasing, which stm-mv's ring lookup rests on.
		x.Info.Set(tm.CauseWriteWrite, trace.AddrKey(uint64(e.Addr)), blame)
		x.unlock()
		return 0, false
	}
	wv, validate := x.Clock.CommitTick(x.RV)
	if validate && !x.Locks.validateReads(&x.TxCore, x.Reads.Slice(), x.RV, slot) {
		x.unlock()
		return 0, false
	}
	return wv, true
}

// OldVersion returns the version stripe idx had before the commit in
// progress acquired it (stm-mv stamps pre-image ring records with it).
func (x *LazyTx) OldVersion(idx uint32) uint64 {
	for _, rec := range x.acquired {
		if rec.idx == idx {
			return VersionOf(rec.old)
		}
	}
	return 0 // unreachable: every written stripe is in acquired
}

// WriteBack applies the redo log to the arena. Caller holds the stripes, so
// each word is written with an owned store; Release publishes them.
func (x *LazyTx) WriteBack() {
	for _, e := range x.Wset.Entries() {
		x.Mem.StoreOwned(e.Addr, e.Val)
	}
}

// Release publishes the commit: every held stripe is unlocked at version wv.
func (x *LazyTx) Release(wv uint64) {
	x.Locks.publish(x.acquired, wv)
	x.acquired = x.acquired[:0]
}

// unlock backs a failed commit out, restoring the stripes' old entries.
func (x *LazyTx) unlock() {
	x.Locks.restore(x.acquired)
	x.acquired = x.acquired[:0]
}
