package hybrid

import (
	"sync/atomic"

	"github.com/stamp-go/stamp/internal/mem"
	"github.com/stamp-go/stamp/internal/thread"
	"github.com/stamp-go/stamp/internal/tm"
	"github.com/stamp-go/stamp/internal/tm/chaos"
	"github.com/stamp-go/stamp/internal/tm/sig"
	"github.com/stamp-go/stamp/internal/tm/trace"
	"github.com/stamp-go/stamp/internal/tm/txset"
)

// Eager is the eager SigTM variant: software undo log with in-place writes,
// hardware signatures for conflict detection at encounter time. Conflicts
// are detected by the requester (insert-then-probe: each barrier publishes
// its own signature bit before probing everyone else's, so of two racing
// conflicting transactions at least one sees the other) and resolved by the
// configured contention manager — by default the requester aborts itself
// with randomized linear backoff, the policy mix that makes this system
// livelock-prone on genome, exactly as the paper reports; priority policies
// (greedy, karma) arbitrate at these same probe points instead.
type Eager struct {
	*tm.Runtime[*eagerTx]
}

// NewEager constructs the eager hybrid.
func NewEager(cfg tm.Config) (*Eager, error) {
	rt, err := tm.NewRuntime[*eagerTx]("hybrid-eager", cfg, tm.DefaultCM)
	if err != nil {
		return nil, err
	}
	s := &Eager{Runtime: rt}
	rt.Bind(func(int) *eagerTx { return &eagerTx{sys: s} })
	return s, nil
}

type eagerTx struct {
	tm.TxCore
	sys *Eager

	active   atomic.Bool
	readSig  sig.Signature
	writeSig sig.Signature
	undo     txset.WriteSet // addr → old value; doubles as the written-set
}

func (x *eagerTx) Begin(int, bool) {
	x.readSig.Clear()
	x.writeSig.Clear()
	x.undo.Reset()
	x.active.Store(true)
}

// Rollback replays the undo log before clearing signatures, so a racing
// reader that passes a cleared signature can only observe restored data.
func (x *eagerTx) Rollback() {
	undo := x.undo.Entries()
	for i := len(undo) - 1; i >= 0; i-- {
		x.Mem.Store(undo[i].Addr, undo[i].Val)
	}
	x.close()
}

// Commit needs no validation and cannot fail: a writer that would have
// invalidated one of our reads saw our read signature and aborted itself
// instead.
func (x *eagerTx) Commit() bool {
	x.close()
	return true
}

// close drops the undo log and withdraws the signatures.
func (x *eagerTx) close() {
	x.undo.Reset()
	x.readSig.Clear()
	x.writeSig.Clear()
	x.active.Store(false)
}

// Load publishes the line in the read signature, then probes every other
// active transaction's write signature; a hit means that line may carry
// in-place speculative data. The contention manager arbitrates the
// conflict: requester-loses policies abort here, priority policies may wait
// the writer out and re-probe.
func (x *eagerTx) Load(a mem.Addr) uint64 {
	x.Loads++
	l := uint32(mem.LineOf(a))
	x.readSig.Insert(l)
	for _, other := range x.sys.Txs {
		if other == x {
			continue
		}
		w := thread.Waiter{Parties: x.Cfg.Threads}
		for other.active.Load() && other.writeSig.Test(l) {
			x.Conflict(other.ID, tm.CauseSignatureConflict, trace.LineKey(uint64(l)), &w)
		}
	}
	return x.Mem.Load(a)
}

// Store publishes the line in the write signature, probes every other
// active transaction's read and write signatures, then writes in place
// under the undo log.
func (x *eagerTx) Store(a mem.Addr, v uint64) {
	x.Stores++
	l := uint32(mem.LineOf(a))
	// Failpoint: a spurious abort at the write-barrier probe looks exactly
	// like a Bloom-signature hit, so it carries that site's natural cause.
	if x.Chaos.Fire(chaos.HybridSigCheck, x.ID) {
		x.Info.Fail(tm.CauseSignatureConflict, trace.LineKey(uint64(l)), tm.NoBlock)
	}
	x.writeSig.Insert(l)
	for _, other := range x.sys.Txs {
		if other == x {
			continue
		}
		w := thread.Waiter{Parties: x.Cfg.Threads}
		for other.active.Load() && (other.readSig.Test(l) || other.writeSig.Test(l)) {
			x.Conflict(other.ID, tm.CauseSignatureConflict, trace.LineKey(uint64(l)), &w)
		}
	}
	// Log the old value only on the first store to a.
	if !x.undo.Contains(a) {
		x.undo.Insert(a, x.Mem.Load(a))
	}
	x.Mem.Store(a, v)
}

// EarlyRelease is unsupported on signatures (no removal from a Bloom
// filter); it is a no-op, as on the lazy hybrid.
func (x *eagerTx) EarlyRelease(mem.Addr) {}
