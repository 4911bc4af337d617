package htmsim

import (
	"sync"
	"sync/atomic"

	"github.com/stamp-go/stamp/internal/mem"
	"github.com/stamp-go/stamp/internal/thread"
	"github.com/stamp-go/stamp/internal/tm"
	"github.com/stamp-go/stamp/internal/tm/chaos"
	"github.com/stamp-go/stamp/internal/tm/sig"
	"github.com/stamp-go/stamp/internal/tm/trace"
	"github.com/stamp-go/stamp/internal/tm/txset"
)

// Eager simulates the paper's LogTM-style eager HTM: data versioning is
// eager (writes go to memory in place, old values to an undo log), conflict
// detection is early (at access time: a barrier probes every running peer's
// line sets, as the coherence protocol would snoop their caches),
// granularity is the 32-byte line, the requester loses on conflict and
// restarts immediately with no backoff, a transaction that has aborted
// priorityAborts (32) times gains high priority so others cannot abort it
// (the livelock escape), and capacity overflow moves a transaction's
// addresses into a Bloom-filter signature whose false positives cause the
// conservative extra aborts the paper observes.
type Eager struct {
	*tm.Runtime[*eagerTx]
	// claims serializes the probe-then-mark step of the barriers on the
	// lines that hash to each lock, so of two conflicting accesses to a
	// line the second always sees the first's mark.
	claims [256]claimLock
}

type claimLock struct {
	sync.Mutex
	_ [56]byte // pad locks apart
}

// priorityAborts is the abort count after which a block's attempts run with
// high priority: the paper's livelock escape, 32.
const priorityAborts = 32

// NewEager constructs the LogTM-style HTM simulation.
func NewEager(cfg tm.Config) (*Eager, error) {
	// Hardware conflict resolution (requester loses, priority escape) is
	// part of the simulated machine and stays fixed; the pluggable policy
	// only governs the restart delay, which the paper's HTM does not apply
	// — hence the "none" default.
	rt, err := tm.NewRuntime[*eagerTx]("htm-eager", cfg, tm.NoCM)
	if err != nil {
		return nil, err
	}
	s := &Eager{Runtime: rt}
	rt.Bind(func(int) *eagerTx {
		return &eagerTx{sys: s, sets: new(setTracker),
			reads: newLineSet(capacityLines), writes: newLineSet(capacityLines)}
	})
	return s, nil
}

type eagerTx struct {
	tm.TxCore
	tm.Flagged // killed by priority transactions (arbitration, cm-kill)
	sys        *Eager

	priority atomic.Bool
	sets     *setTracker    // associativity model (Table V: 4-way)
	undo     txset.WriteSet // addr → old value; doubles as the written-set

	// The lines this attempt has read and written; peers probe them under
	// the line's claim lock, and LineCounts reports their sizes.
	reads  *lineSet
	writes *lineSet

	// Overflow mode: peers test the signatures, which hold every line the
	// attempt has, instead of its line sets.
	overflowed atomic.Bool
	readSig    sig.Signature
	writeSig   sig.Signature
}

// Begin opens the attempt; a block that has aborted priorityAborts times
// runs it with high priority (the paper's livelock escape). The previous
// attempt's line sets are cleared here, before Arm makes the attempt
// visible (peers skip an inactive transaction), so LineCounts can still
// read them after Commit.
func (x *eagerTx) Begin(aborts int, _ bool) {
	x.sets.reset()
	x.undo.Reset()
	x.reads.clear()
	x.writes.clear()
	x.priority.Store(aborts >= priorityAborts)
	x.Arm()
}

// Rollback restores memory from the undo log and withdraws the attempt's
// marks, then leaves the transaction inactive.
func (x *eagerTx) Rollback() {
	undo := x.undo.Entries()
	for i := len(undo) - 1; i >= 0; i-- {
		x.Mem.Store(undo[i].Addr, undo[i].Val)
	}
	x.release()
}

// Commit publishes by withdrawing the attempt's marks; the data is already
// in place.
func (x *eagerTx) Commit() bool {
	// Eager conflict detection keeps running transactions disjoint, so no
	// commit-time validation is needed; only a pending abort request (from a
	// priority transaction) can invalidate us here.
	if x.Killed() {
		x.Blame(&x.Info, tm.CauseCMKill)
		return false
	}
	x.release()
	return true
}

// release leaves overflow mode and the attempt. Signatures are cleared
// only after memory is restored (Rollback replays the undo log first), so
// a reader that raced past a cleared signature can only observe restored
// or committed data; the line sets, which hold every line, stay exact
// until the transaction goes inactive.
func (x *eagerTx) release() {
	x.readSig.Clear()
	x.writeSig.Clear()
	x.overflowed.Store(false)
	x.Active.Store(false)
}

// LineCounts overrides the core's with the attempt's line sets.
func (x *eagerTx) LineCounts() (reads, writes int, ok bool) {
	return x.reads.len(), x.writes.len(), true
}

func (x *eagerTx) pollAbort() {
	if x.Killed() {
		// Flagged by a priority transaction — arbitration killed us.
		x.Blame(&x.Info, tm.CauseCMKill)
		tm.Retry()
	}
}

// conflictWith resolves a conflict on line l against victim, attributing a
// requester-loses abort to cause (htm-conflict for precise line-set hits,
// signature-conflict for Bloom hits). Requester loses: the caller aborts
// itself — unless it holds priority and outranks the victim, in which case
// the victim is flagged and the caller waits for it to withdraw (the
// paper's high-priority escape). When both hold priority the lower slot
// wins, so priority conflicts always have a global winner and cannot
// livelock. Returns only when the caller may retry the barrier.
func (x *eagerTx) conflictWith(victim *eagerTx, l mem.Line, cause tm.AbortCause) {
	win := x.priority.Load() && (!victim.priority.Load() || x.ID < victim.ID)
	if !win {
		// Requester loses; blame the line's current holder.
		x.Info.Fail(cause, trace.LineKey(uint64(l)), x.BlockOf(victim.ID))
	}
	victim.Kill(x.BlockOf(x.ID), l)
	w := thread.Waiter{Parties: x.Cfg.Threads} // the victim may need our core to roll back
	for victim.Active.Load() && victim.Killed() {
		x.pollAbort() // a cycle of priority waits resolves through flags
		w.Pause()
	}
}

// probe returns the first active peer whose marks conflict with accessing
// line l — its write mark, or for a write any mark — and the cause a
// conflict with it carries. The caller holds l's claim lock.
func (x *eagerTx) probe(l mem.Line, write bool) (*eagerTx, tm.AbortCause) {
	for _, p := range x.sys.Txs {
		if p == x || !p.Active.Load() {
			continue
		}
		if p.overflowed.Load() {
			// Bloom hits include false positives, so they carry their own cause.
			if p.writeSig.Test(uint32(l)) || write && p.readSig.Test(uint32(l)) {
				return p, tm.CauseSignatureConflict
			}
		} else if p.writes.contains(l) || write && p.reads.contains(l) {
			return p, tm.CauseHTMConflict
		}
	}
	return nil, 0
}

// claim marks line l in set (and, in overflow mode, in sg) once no peer
// holds a conflicting mark. The probe and the mark are one step under l's
// claim lock. On a conflict the requester loses; a priority requester
// marks anyway — a reservation that turns away new accesses to l, so it
// drains the current holders instead of chasing rejoining readers forever
// (LogTM's sticky-state trick) — and waits out each victim it flags.
func (x *eagerTx) claim(l mem.Line, set *lineSet, sg *sig.Signature, write bool) {
	if x.overflowed.Load() && set.len() >= len(set.slots)/2 {
		x.grow(set)
	}
	mu := &x.sys.claims[(uint32(l)*2654435761)>>24]
	for {
		x.pollAbort()
		mu.Lock()
		victim, cause := x.probe(l, write)
		if victim == nil || x.priority.Load() {
			if x.overflowed.Load() {
				sg.Insert(uint32(l))
			}
			set.insert(l)
		}
		mu.Unlock()
		if victim == nil {
			return
		}
		x.conflictWith(victim, l, cause)
	}
}

// Load implements the eager read barrier.
func (x *eagerTx) Load(a mem.Addr) uint64 {
	x.Loads++
	x.pollAbort()
	l := mem.LineOf(a)
	if !x.reads.contains(l) && !x.writes.contains(l) {
		if !x.overflowed.Load() && !x.sets.add(l) {
			x.spillToSignatures()
		}
		x.claim(l, x.reads, &x.readSig, false)
	}
	return x.Mem.Load(a)
}

// Store implements the eager write barrier: gain exclusive ownership, log
// the old value, write in place.
func (x *eagerTx) Store(a mem.Addr, v uint64) {
	x.Stores++
	x.pollAbort()
	l := mem.LineOf(a)
	// Failpoint: a spurious abort at the ownership claim looks exactly like
	// a precise line conflict, so it carries that site's natural cause.
	// The undo log makes aborting here safe at any point in the attempt.
	if x.Chaos.Fire(chaos.HTMArbitrate, x.ID) {
		x.Info.Fail(tm.CauseHTMConflict, trace.LineKey(uint64(l)), tm.NoBlock)
	}
	if !x.writes.contains(l) {
		if !x.reads.contains(l) && !x.overflowed.Load() && !x.sets.add(l) {
			x.spillToSignatures()
		}
		x.claim(l, x.writes, &x.writeSig, true)
	}
	// Log the old value only on the first store to a.
	if !x.undo.Contains(a) {
		x.undo.Insert(a, x.Mem.Load(a))
	}
	x.Mem.Store(a, v)
}

// spillToSignatures enters overflow mode: every line the attempt holds goes
// into its signatures before peers switch to testing them. It takes no
// claim lock: a peer that still sees the attempt unspilled probes its line
// sets, which stay exact, and from then on claim marks each new line in
// both.
func (x *eagerTx) spillToSignatures() {
	for l := range x.reads.all() {
		x.readSig.Insert(uint32(l))
	}
	for l := range x.writes.all() {
		x.writeSig.Insert(uint32(l))
	}
	x.overflowed.Store(true)
}

// grow lets an overflowed attempt's line set outgrow Table V's capacity,
// so its counts stay exact. Replacing the table is not safe against a
// concurrent probe, so it runs under every claim lock: a probe that saw the
// attempt unspilled has finished, and every later one tests the
// signatures instead.
func (x *eagerTx) grow(set *lineSet) {
	for i := range x.sys.claims {
		x.sys.claims[i].Lock()
	}
	set.grow()
	for i := range x.sys.claims {
		x.sys.claims[i].Unlock()
	}
}

// EarlyRelease drops the reader mark for a line and frees its way in the
// simulated L1, as htm-lazy's does ("the eager HTM cannot
// perform early-release on addresses that hit in the Bloom filter", so in
// overflow mode the signature entry stays and keeps generating conflicts —
// the exact labyrinth+ behaviour from Section V).
func (x *eagerTx) EarlyRelease(a mem.Addr) {
	if !x.Cfg.EnableEarlyRelease || x.overflowed.Load() {
		return // cannot remove from a Bloom filter
	}
	if l := mem.LineOf(a); !x.writes.contains(l) {
		if x.reads.contains(l) {
			x.sets.drop(l)
		}
		x.reads.remove(l)
	}
}
