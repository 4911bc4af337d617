// Package tl2 implements the two software TM systems of the paper: a lazy
// STM that is a port of TL2 (Dice, Shalev, Shavit — "Transactional Locking
// II"), and the paper's eager variant of TL2 (undo log plus encounter-time
// write locks). Both detect conflicts at word granularity, which is the
// property that lets the STMs beat the line-granularity HTMs on bayes and
// vacation in the paper. The lazy transaction (LazyTx) and the versioned
// lock table are exported: stm-mv is LazyTx plus version rings.
package tl2

import (
	"sync/atomic"

	"github.com/stamp-go/stamp/internal/mem"
	"github.com/stamp-go/stamp/internal/tm"
	"github.com/stamp-go/stamp/internal/tm/trace"
)

// Lock-table size bounds, in log2 stripes, for the whole TL2 family
// (stm-lazy, stm-eager and stm-mv): one stripe per arena word, next power
// of two, within [minTableBits, maxTableBits]. The cap keeps the metadata
// cache-sized — 2^16 stripes are 512 KiB of lock words, a quarter of a
// 2 MiB per-core L2 — and bounds stm-mv's ring slab, one run per stripe;
// at 2^14, aliased stripes already show as false conflicts on tx-long.
// Beyond 2^maxTableBits words the table wraps (see Index), which only adds
// false conflicts, never lost updates.
const (
	minTableBits = 12 // 4096 stripes, 32 KiB — floor for tiny arenas
	maxTableBits = 16 // 65536 stripes, 512 KiB — the cap
)

// TableBits returns the log2 stripe count for an arena of the given
// capacity in words: the smallest power of two covering it word for word,
// clamped to [minTableBits, maxTableBits].
func TableBits(words int) int {
	bits := minTableBits
	for bits < maxTableBits && 1<<bits < words {
		bits++
	}
	return bits
}

// LockTable is the per-stripe versioned-lock array. An entry encodes either
// a version (unlocked) or an owner (locked):
//
//	unlocked: version<<1 | 0
//	locked:   owner<<1   | 1
type LockTable struct {
	entries []atomic.Uint64
	bits    uint32
}

// NewLockTable builds a table of 2^bits unlocked stripes at version 0.
func NewLockTable(bits int) *LockTable {
	return &LockTable{entries: make([]atomic.Uint64, uint32(1)<<bits), bits: uint32(bits)}
}

// Stripes returns the stripe count.
func (t *LockTable) Stripes() int { return len(t.entries) }

// Index maps a word address to its stripe (word granularity). The map keeps
// the metadata as local as the data:
//
//   - The 8 words of an aligned 64-byte arena line map onto the 8 entries of
//     one aligned 64-byte table line (a>>bits is constant across the line,
//     so the xor only permutes entries within the group): a transaction
//     that touches one data line touches one metadata line.
//   - With stripes >= arena words (every arena up to 2^maxTableBits words)
//     a>>bits is 0 and the map is the identity: injective, so no false
//     conflicts.
//   - When the table wraps (every larger arena), the bits above the table
//     size are xor-folded in, so addresses a power-of-two stride of the
//     table size (or a multiple) apart land on distinct stripes instead of
//     all on one.
func (t *LockTable) Index(a mem.Addr) uint32 {
	x := uint32(a)
	return (x ^ x>>t.bits) & uint32(len(t.entries)-1)
}

// Load returns stripe idx's entry.
func (t *LockTable) Load(idx uint32) uint64 { return t.entries[idx].Load() }

// release unlocks stripe idx at entry v. Only the stripe's owner calls it,
// after its last store under the lock (mem.StoreRelease orders them).
func (t *LockTable) release(idx uint32, v uint64) { mem.StoreRelease(&t.entries[idx], v) }

func (t *LockTable) cas(idx uint32, o, n uint64) bool {
	return t.entries[idx].CompareAndSwap(o, n)
}

// LockedBy decodes an entry's owner slot and whether it is locked at all.
func LockedBy(e uint64) (owner uint64, locked bool) { return e >> 1, e&1 == 1 }

// VersionOf decodes an unlocked entry's version.
func VersionOf(e uint64) uint64 { return e >> 1 }

// lockRec is one acquired stripe.
type lockRec struct {
	idx uint32
	old uint64 // entry value before acquisition (restored on abort)
}

// restore releases acquired stripes at their pre-acquisition entries,
// newest first.
func (t *LockTable) restore(acquired []lockRec) {
	for i := len(acquired) - 1; i >= 0; i-- {
		t.release(acquired[i].idx, acquired[i].old)
	}
}

// publish releases acquired stripes at the commit version wv.
func (t *LockTable) publish(acquired []lockRec, wv uint64) {
	for _, rec := range acquired {
		t.release(rec.idx, wv<<1)
	}
}

// validateReads is TL2's commit-time read-set check, shared by both
// variants: every stripe read must be unlocked (or locked by slot itself)
// and not committed past rv. On failure the abort registers are stamped.
func (t *LockTable) validateReads(c *tm.TxCore, reads []uint32, rv, slot uint64) bool {
	for _, idx := range reads {
		e := t.Load(idx)
		if owner, locked := LockedBy(e); locked {
			if owner != slot {
				c.Info.Set(tm.CauseReadValidation, trace.StripeKey(uint64(idx)), c.BlockOf(int(owner)))
				return false
			}
		} else if VersionOf(e) > rv {
			c.Info.Set(tm.CauseReadValidation, trace.StripeKey(uint64(idx)), tm.NoBlock)
			return false
		}
	}
	return true
}
