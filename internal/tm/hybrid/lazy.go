// Package hybrid implements the paper's two hybrid TM systems, modelled on
// SigTM: data versioning stays in software (a write buffer for the lazy
// variant, an undo log for the eager one) while conflict detection uses
// per-transaction hardware signatures — 2048-bit Bloom filters over 32-byte
// line addresses (Table V). Conflict detection is therefore at line
// granularity and conservative (false positives), and isolation is strong
// with respect to transactional peers. Contention management defaults to
// the STMs' randomized linear backoff after three aborts, and is pluggable
// through tm.Config.CM like every software-managed runtime; the eager
// variant additionally consults the policy's arbitration at its
// encounter-time signature conflicts.
package hybrid

import (
	"github.com/stamp-go/stamp/internal/mem"
	"github.com/stamp-go/stamp/internal/tm"
	"github.com/stamp-go/stamp/internal/tm/chaos"
	"github.com/stamp-go/stamp/internal/tm/sig"
	"github.com/stamp-go/stamp/internal/tm/txset"
)

// Lazy is the SigTM-style lazy hybrid: software write buffer, read/write
// signatures, committer-wins conflict detection at commit. It arbitrates
// exactly like the TCC HTM (tm.Arbiter), but peers probe signatures instead
// of precise line sets.
type Lazy struct {
	*tm.Runtime[*lazyTx]
	arb tm.Arbiter
}

// NewLazy constructs the lazy hybrid.
func NewLazy(cfg tm.Config) (*Lazy, error) {
	rt, err := tm.NewRuntime[*lazyTx]("hybrid-lazy", cfg, tm.DefaultCM)
	if err != nil {
		return nil, err
	}
	s := &Lazy{Runtime: rt}
	s.arb.Parties = rt.Cfg.Threads
	rt.Bind(func(int) *lazyTx { return &lazyTx{sys: s} })
	return s, nil
}

type lazyTx struct {
	tm.TxCore
	tm.Flagged // killed by committers whose write lines our signatures admit
	sys        *Lazy

	readSig  sig.Signature
	writeSig sig.Signature
	wset     txset.WriteSet // redo log (insertion order = writeback order)
}

func (x *lazyTx) Begin(tm.BlockID, int) {
	x.readSig.Clear()
	x.writeSig.Clear()
	x.wset.Reset()
	x.Arm()
}

// end closes the conflict window after a commit or an abort: once Active is
// clear, peers stop probing these signatures, and clearing them keeps no
// stale conflict state between transactions.
func (x *lazyTx) end() {
	x.Active.Store(false)
	x.readSig.Clear()
	x.writeSig.Clear()
}

func (x *lazyTx) Rollback() { x.end() }

// failKilled unwinds an attempt a committer flagged. All flag aborts here
// are signature hits — possibly false positives, which is exactly why the
// cause is its own bucket.
func (x *lazyTx) failKilled() {
	x.Blame(&x.Info, tm.CauseSignatureConflict)
	tm.Retry()
}

// Touches implements tm.Victim over the Bloom signatures.
func (x *lazyTx) Touches(l mem.Line) bool {
	return x.readSig.Test(uint32(l)) || x.writeSig.Test(uint32(l))
}

// Load: write-buffer lookup, then a signature-tracked read. The arbiter's
// epoch seqlock guarantees a read that overlaps a commit is redone, so
// doomed transactions never hold an inconsistent snapshot.
func (x *lazyTx) Load(a mem.Addr) uint64 {
	x.Loads++
	if v, ok := x.wset.Get(a); ok {
		return v
	}
	if x.Killed() {
		x.failKilled()
	}
	x.readSig.Insert(uint32(mem.LineOf(a)))
	v, ok := x.sys.arb.Read(&x.Flagged, x.Mem, a)
	if !ok {
		x.failKilled()
	}
	x.NoteRead(a)
	return v
}

// Store buffers the word and records the line in the write signature.
func (x *lazyTx) Store(a mem.Addr, v uint64) {
	x.Stores++
	if x.Killed() {
		x.failKilled()
	}
	x.wset.Put(a, v)
	x.writeSig.Insert(uint32(mem.LineOf(a)))
	x.NoteWrite(a)
}

// EarlyRelease cannot remove a line from a Bloom filter; like SigTM, the
// hybrid simply does not support it (labyrinth avoids needing it on hybrids
// by using uninstrumented Peek reads, as the paper explains).
func (x *lazyTx) EarlyRelease(mem.Addr) {}

// Commit flags every active transaction whose read or write signature
// admits one of our write lines, then writes back (committer wins).
func (x *lazyTx) Commit() bool {
	// Read-only: any conflicting committer flagged us before writing back.
	ok := !x.Killed()
	if x.wset.Len() > 0 {
		// Failpoint: a spurious abort at the committer's signature sweep looks
		// exactly like being flagged by a racing committer (a signature hit).
		if x.Chaos.Fire(chaos.HybridSigCheck, x.ID) {
			x.Info.Set(tm.CauseSignatureConflict, 0, tm.NoBlock)
			return false
		}
		ok = tm.CommitWins(&x.sys.arb, x, x.sys.Txs, x.BlockOf(x.ID), x.wset.Entries(), x.Mem)
	}
	if !ok {
		x.Blame(&x.Info, tm.CauseSignatureConflict)
		return false
	}
	x.end()
	return true
}
