package tl2

import (
	"github.com/stamp-go/stamp/internal/mem"
	"github.com/stamp-go/stamp/internal/thread"
	"github.com/stamp-go/stamp/internal/tm"
	"github.com/stamp-go/stamp/internal/tm/chaos"
	"github.com/stamp-go/stamp/internal/tm/trace"
	"github.com/stamp-go/stamp/internal/tm/txset"
)

// Eager is the paper's eager variant of TL2: writes acquire the stripe lock
// at encounter time, update memory in place, and log the old value in an
// undo log that is replayed on abort. Locks are held until commit, so a
// conflicting transaction fails fast (early conflict detection) — which is
// exactly the behaviour that livelocks on genome in the paper. Read
// barriers are shorter than the lazy STM's (no write-buffer lookup), which
// is why the eager STM wins on read-heavy kmeans.
type Eager struct {
	*tm.Runtime[*eagerTx]
	locks *LockTable
	clock *Clock
}

// NewEager constructs the eager STM.
func NewEager(cfg tm.Config) (*Eager, error) {
	rt, err := tm.NewRuntime[*eagerTx]("stm-eager", cfg, tm.DefaultCM)
	if err != nil {
		return nil, err
	}
	s := &Eager{Runtime: rt, locks: NewLockTable(TableBits(rt.Cfg.Arena.Cap(), minTableBits, maxTableBits)), clock: new(Clock)}
	rt.Bind(func(slot int) *eagerTx { return &eagerTx{locks: s.locks, clock: s.clock, slot: uint64(slot)} })
	return s, nil
}

// LockTableStripes returns the stripe count of this instance's lock table.
func (s *Eager) LockTableStripes() int { return s.locks.Stripes() }

type eagerTx struct {
	tm.TxCore
	locks *LockTable
	clock *Clock
	slot  uint64

	rv       uint64
	reads    txset.IndexSet
	acquired []lockRec
	undo     txset.WriteSet // addr → old value; doubles as the written-set

	_ [64]byte // keep the next worker's descriptor off this one's last line
}

func (x *eagerTx) Begin(int, bool) {
	x.rv = x.clock.Begin()
	x.reads.Reset()
	x.acquired = x.acquired[:0]
	x.undo.Reset()
}

// Rollback replays the undo log (newest first) and releases the stripe
// locks (restoring their pre-acquisition entries).
func (x *eagerTx) Rollback() {
	undo := x.undo.Entries()
	for i := len(undo) - 1; i >= 0; i-- {
		x.Mem.StoreOwned(undo[i].Addr, undo[i].Val)
	}
	x.undo.Reset()
	x.locks.restore(x.acquired)
	x.acquired = x.acquired[:0]
}

// Load implements the eager read barrier: no write-buffer lookup; stripes
// locked by this transaction read their in-place value directly.
func (x *eagerTx) Load(a mem.Addr) uint64 {
	x.Loads++
	idx := x.locks.Index(a)
	e1 := x.locks.Load(idx)
	w := thread.Waiter{Parties: x.Cfg.Threads}
	for {
		owner, locked := LockedBy(e1)
		if !locked {
			break
		}
		if owner == x.slot {
			return x.Mem.Load(a)
		}
		// Early conflict detection: the stripe is held by a running writer.
		// Requester-loses policies fail fast here; priority policies may
		// wait the holder out and re-probe.
		if tm.WaitOrAbort(x.CM, x.CMOf(int(owner)), &w) {
			x.Info.Fail(tm.CauseOrDisplaced(x.CM, tm.CauseStripeLockBusy), trace.AddrKey(uint64(a)), x.BlockOf(int(owner)))
		}
		e1 = x.locks.Load(idx)
	}
	if VersionOf(e1) > x.rv {
		x.Info.Fail(tm.CauseReadValidation, trace.AddrKey(uint64(a)), tm.NoBlock)
	}
	v := x.Mem.Load(a)
	if x.locks.Load(idx) != e1 {
		x.Info.Fail(tm.CauseReadValidation, trace.AddrKey(uint64(a)), tm.NoBlock)
	}
	x.reads.Add(idx)
	return v
}

// Store implements the eager write barrier: acquire the stripe lock, log the
// old value, write in place.
func (x *eagerTx) Store(a mem.Addr, v uint64) {
	x.Stores++
	// Failpoint: a spurious abort at encounter-time acquisition looks like
	// losing a writer-writer race, so it carries that site's natural cause.
	if x.Chaos.Fire(chaos.TL2LockAcquire, x.ID) {
		x.Info.Fail(tm.CauseWriteWrite, trace.AddrKey(uint64(a)), tm.NoBlock)
	}
	idx := x.locks.Index(a)
	w := thread.Waiter{Parties: x.Cfg.Threads}
	for {
		e := x.locks.Load(idx)
		owner, locked := LockedBy(e)
		if locked && owner == x.slot {
			break // stripe already held
		}
		if locked {
			if tm.WaitOrAbort(x.CM, x.CMOf(int(owner)), &w) {
				x.Info.Fail(tm.CauseOrDisplaced(x.CM, tm.CauseWriteWrite), trace.AddrKey(uint64(a)), x.BlockOf(int(owner)))
			}
			continue
		}
		if VersionOf(e) > x.rv {
			// Stripe committed past our snapshot; keep it simple and retry.
			x.Info.Fail(tm.CauseWriteWrite, trace.AddrKey(uint64(a)), tm.NoBlock)
		}
		if x.locks.cas(idx, e, x.slot<<1|1) {
			x.acquired = append(x.acquired, lockRec{idx: idx, old: e})
			break
		}
		// CAS raced with another acquirer; re-probe and arbitrate.
	}
	// Log the old value only on the first store to a (undo-log semantics);
	// the Contains guard keeps repeat stores from even reading the arena.
	if !x.undo.Contains(a) {
		x.undo.Insert(a, x.Mem.Load(a))
	}
	x.Mem.StoreOwned(a, v) // after the stripe CAS: readers see the lock first
}

// EarlyRelease is a no-op for the STM, as in the paper.
func (x *eagerTx) EarlyRelease(mem.Addr) {}

// Commit validates the read set and publishes by releasing locks at the new
// version; data is already in place. A failed validation leaves the undo
// log and the locks to Rollback.
func (x *eagerTx) Commit() bool {
	if len(x.acquired) == 0 && x.undo.Len() == 0 {
		return true // read-only
	}
	wv, validate := x.clock.CommitTick(x.rv)
	if validate && !x.locks.validateReads(&x.TxCore, x.reads.Slice(), x.rv, x.slot) {
		return false
	}
	// Failpoint: stall before release — data is already in place and every
	// written stripe is still locked, so peers pile up on this transaction.
	x.Chaos.Stall(chaos.TL2LockRelease, x.ID)
	x.locks.publish(x.acquired, wv)
	x.acquired = x.acquired[:0]
	x.undo.Reset()
	return true
}
