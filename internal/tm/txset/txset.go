// Package txset provides the hot-path read/write-set data structures shared
// by every concurrent TM runtime in the suite.
//
// The paper's characterization is only as credible as the per-barrier cost
// of the runtimes, and the Go map probe the write buffers used to pay on
// every Load and Store dominated exactly the read-barrier overhead the paper
// calls out for lazy STMs. txset replaces those maps with structures shaped
// for the transactional access pattern:
//
//   - WriteSet is a redo/undo log with O(1) membership: an insertion-order
//     entry log (which IS the writeback/rollback order), an open-addressed
//     power-of-two hash index over it, an inline small-set fast path that
//     linear-scans the log while it holds at most smallMax entries (no
//     hashing at all — most STAMP transactions never leave this regime),
//     and a one-word bloom-style write filter so a Load that cannot hit the
//     write buffer — the common case in read-dominated vacation and genome —
//     skips lookup entirely after one multiply and one branch, provided the
//     barrier tests MayContain itself (see Get).
//   - ReadSet is the append-only value-validation log NOrec revalidates,
//     with last-entry dedup so tight re-read loops do not grow it.
//   - IndexSet is the append-only stripe log the TL2 runtimes validate at
//     commit, with the same last-entry dedup.
//
// All three types are owner-thread-only. Reset is O(1): the hash index is
// invalidated by bumping an epoch instead of clearing slots.
package txset

import "github.com/stamp-go/stamp/internal/mem"

// smallMax is the write-set size up to which lookups linear-scan the entry
// log instead of probing the hash index. Scanning ≤8 entries newest-first is
// faster than hashing, and covers the bulk of STAMP's transactions (Table VI
// write sets are mostly under 8 words).
const smallMax = 8

// minSlots is the initial hash-index size (power of two, ≥ 2*smallMax so
// the index starts at load factor ≤ 0.5 when the small regime overflows).
const minSlots = 32

// Entry is one write-set record: the address and the value logged for it
// (the redo value for lazy runtimes, the undo value for eager ones).
type Entry struct {
	Addr mem.Addr
	Val  uint64
}

// filterBit hashes an address to one bit of the one-word write filter.
// Fibonacci mixing spreads the strided address patterns the container
// library produces (line-padded nodes would alias a plain addr&63).
func filterBit(a mem.Addr) uint64 {
	return 1 << ((uint64(a) * 0x9E3779B97F4A7C15) >> 58)
}

// slotHash spreads addresses over the hash index.
func slotHash(a mem.Addr) uint32 {
	x := uint32(a) * 2654435761
	return x ^ x>>16
}

// islot is one hash-index slot: an entry-log position stamped with the
// epoch it was written in. Slots from earlier transactions are invalidated
// wholesale by bumping WriteSet.epoch, never by clearing.
type islot struct {
	epoch uint32
	pos   int32
}

// WriteSet is the write buffer / undo log. The zero value is ready to use;
// call Reset at transaction begin.
type WriteSet struct {
	entries []Entry
	filter  uint64
	slots   []islot
	mask    uint32
	epoch   uint32
}

// Reset discards all entries in O(1) (the hash index is epoch-invalidated,
// not cleared).
func (w *WriteSet) Reset() {
	w.entries = w.entries[:0]
	w.filter = 0
	w.epoch++
	if w.epoch == 0 { // epoch wrapped: stale stamps could collide, clear for real
		for i := range w.slots {
			w.slots[i] = islot{}
		}
		w.epoch = 1
	}
}

// Len returns the number of distinct addresses written.
func (w *WriteSet) Len() int { return len(w.entries) }

// Entries returns the log in insertion order (first-store order). The slice
// aliases internal storage: it is invalidated by the next Put/Insert/Reset,
// and callers iterating it must not mutate the set.
func (w *WriteSet) Entries() []Entry { return w.entries }

// MayContain is the one-word write filter: false means a is definitely not
// in the set, so the caller can skip the lookup entirely. True means maybe.
func (w *WriteSet) MayContain(a mem.Addr) bool { return w.filter&filterBit(a) != 0 }

// Get returns the value logged for a. The filter rejects definite misses
// before any scanning or hashing happens.
//
// Get itself is over the inliner's budget (the probe behind the filter makes
// it so, and no split of it fits: an out-of-line call alone costs most of
// the budget), so a read barrier that calls it pays a call on every load,
// hit or miss. Hot barriers therefore test MayContain first — that test
// inlines — and call Get only on a possible hit:
//
//	if w.MayContain(a) {
//		if v, ok := w.Get(a); ok {
//			return v
//		}
//	}
//
// TestReadBarriersInlineFilter (internal/tm) pins that shape in every lazy
// runtime's read barrier.
func (w *WriteSet) Get(a mem.Addr) (uint64, bool) {
	if w.filter&filterBit(a) == 0 {
		return 0, false
	}
	if i := w.find(a); i >= 0 {
		return w.entries[i].Val, true
	}
	return 0, false
}

// Contains reports whether a has been written.
func (w *WriteSet) Contains(a mem.Addr) bool {
	return w.filter&filterBit(a) != 0 && w.find(a) >= 0
}

// Put logs value v for address a, overwriting any earlier value (redo-log
// semantics). It reports whether a was newly inserted.
func (w *WriteSet) Put(a mem.Addr, v uint64) bool {
	if w.filter&filterBit(a) != 0 {
		if i := w.find(a); i >= 0 {
			w.entries[i].Val = v
			return false
		}
	}
	w.append(a, v)
	return true
}

// Insert logs value v for address a only if a is absent (undo-log
// semantics: the first store's old value wins). It reports whether it
// inserted.
func (w *WriteSet) Insert(a mem.Addr, v uint64) bool {
	if w.filter&filterBit(a) != 0 && w.find(a) >= 0 {
		return false
	}
	w.append(a, v)
	return true
}

// find returns the entry-log position of a, or -1. The caller has already
// consulted the filter.
func (w *WriteSet) find(a mem.Addr) int32 {
	if len(w.entries) <= smallMax {
		// Small-set fast path: newest-first linear scan, no hashing.
		// Newest-first makes the common read-after-write of the most
		// recently stored address a one-comparison hit.
		for i := len(w.entries) - 1; i >= 0; i-- {
			if w.entries[i].Addr == a {
				return int32(i)
			}
		}
		return -1
	}
	i := slotHash(a) & w.mask
	for {
		s := w.slots[i]
		if s.epoch != w.epoch {
			return -1 // empty (or stale from an earlier transaction)
		}
		if w.entries[s.pos].Addr == a {
			return s.pos
		}
		i = (i + 1) & w.mask
	}
}

// append adds a new entry and maintains the hash index once the set has
// outgrown the small-scan regime.
func (w *WriteSet) append(a mem.Addr, v uint64) {
	pos := int32(len(w.entries))
	w.entries = append(w.entries, Entry{Addr: a, Val: v})
	w.filter |= filterBit(a)
	if len(w.entries) <= smallMax {
		return
	}
	if len(w.entries) == smallMax+1 || len(w.entries)*2 > len(w.slots) {
		// Crossing out of the small regime (nothing indexed yet — the index
		// may still hold a previous transaction's slots) or outgrowing the
		// table: (re)index the whole log.
		w.rebuild()
		return
	}
	w.index(a, pos)
}

// index inserts one entry-log position into the hash table.
func (w *WriteSet) index(a mem.Addr, pos int32) {
	i := slotHash(a) & w.mask
	for w.slots[i].epoch == w.epoch {
		i = (i + 1) & w.mask
	}
	w.slots[i] = islot{epoch: w.epoch, pos: pos}
}

// rebuild sizes the hash index to at least 4× the live entries (load factor
// ≤ 0.25 right after a rebuild, ≤ 0.5 before the next) and indexes the whole
// log. A table that is already big enough is kept and epoch-invalidated
// instead of reallocated, so a workload whose transactions repeatedly write
// ~the same medium-sized set grows the table once, not once per
// transaction.
func (w *WriteSet) rebuild() {
	n := uint32(minSlots)
	for int(n) < 4*len(w.entries) {
		n <<= 1
	}
	if int(n) > len(w.slots) {
		w.slots = make([]islot, n) // fresh slots are epoch 0, i.e. empty
		w.mask = n - 1
	} else {
		w.epoch++
	}
	if w.epoch == 0 { // zero-value set, or epoch wrapped: make stamps unambiguous
		for i := range w.slots {
			w.slots[i] = islot{}
		}
		w.epoch = 1
	}
	for pos, e := range w.entries {
		w.index(e.Addr, int32(pos))
	}
}

// ReadEntry is one read-set record: the address and the value observed
// there (NOrec validates by value).
type ReadEntry struct {
	Addr mem.Addr
	Val  uint64
}

// ReadSet is the append-only value-validation log. The zero value is ready
// to use; call Reset at transaction begin.
type ReadSet struct {
	entries []ReadEntry
}

// Reset discards all entries.
func (r *ReadSet) Reset() { r.entries = r.entries[:0] }

// Len returns the number of logged reads.
func (r *ReadSet) Len() int { return len(r.entries) }

// Add logs an observed (address, value) pair. Consecutive re-reads of the
// same address are deduplicated, so a tight loop over one location costs
// one entry instead of one per load; non-adjacent duplicates are kept
// (validating them twice is always safe).
func (r *ReadSet) Add(a mem.Addr, v uint64) {
	if n := len(r.entries); n > 0 && r.entries[n-1].Addr == a && r.entries[n-1].Val == v {
		return
	}
	r.entries = append(r.entries, ReadEntry{Addr: a, Val: v})
}

// Entries returns the log in append order. The slice aliases internal
// storage and is invalidated by the next Add/Reset.
func (r *ReadSet) Entries() []ReadEntry { return r.entries }

// IndexSet is the append-only log of stripe (lock-table) indices the TL2
// runtimes validate at commit, with last-entry dedup. Stripes are word
// granular (distinct words share one only when the table wraps), so what
// the dedup collapses is the tight re-read of one word — a loop polling a
// field — not a walk over a node's adjacent fields. The zero value is ready
// to use.
type IndexSet struct {
	idx []uint32
}

// Reset discards all entries.
func (s *IndexSet) Reset() { s.idx = s.idx[:0] }

// Len returns the number of logged indices.
func (s *IndexSet) Len() int { return len(s.idx) }

// Add logs index i, skipping a consecutive duplicate.
func (s *IndexSet) Add(i uint32) {
	if n := len(s.idx); n > 0 && s.idx[n-1] == i {
		return
	}
	s.idx = append(s.idx, i)
}

// Slice returns the log in append order. The slice aliases internal storage
// and is invalidated by the next Add/Reset.
func (s *IndexSet) Slice() []uint32 { return s.idx }
