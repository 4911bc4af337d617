package htmsim

import (
	"math/bits"
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
// detection is early (at access time, through a line-ownership directory
// that models the coherence protocol), granularity is the 32-byte line, the
// requester loses on conflict and restarts immediately with no backoff, a
// transaction that has aborted PriorityAfter (32) times gains high priority
// so others cannot abort it (the livelock escape), and capacity overflow
// moves a transaction's addresses into a Bloom-filter signature whose false
// positives cause the conservative extra aborts the paper observes.
type Eager struct {
	*tm.Runtime[*eagerTx]
	dir *directory
}

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
	s := &Eager{Runtime: rt, dir: newDirectory()}
	rt.Bind(func(int) *eagerTx {
		x := &eagerTx{sys: s, sets: newSetTracker(rt.Cfg)}
		// The line maps are protocol state here, not profiling: the lines
		// this transaction holds directory marks (or signature entries) on.
		x.ReadLines = make(map[mem.Line]struct{})
		x.WriteLines = make(map[mem.Line]struct{})
		return x
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

	// Overflow mode: addresses past capacity live in signatures instead of
	// the directory; other transactions test them conservatively.
	overflowed atomic.Bool
	readSig    sig.Signature
	writeSig   sig.Signature
}

// Begin opens the attempt; a block that has aborted PriorityAfter times
// runs it with high priority (the paper's livelock escape).
func (x *eagerTx) Begin(_ tm.BlockID, aborts int) {
	x.sets.reset()
	x.undo.Reset()
	x.priority.Store(aborts >= x.Cfg.PriorityAfter)
	x.readSig.Clear()
	x.writeSig.Clear()
	x.overflowed.Store(false)
	x.Arm()
}

// Rollback restores memory from the undo log and withdraws all conflict-
// detection state, then leaves the transaction inactive.
func (x *eagerTx) Rollback() {
	undo := x.undo.Entries()
	for i := len(undo) - 1; i >= 0; i-- {
		x.Mem.Store(undo[i].Addr, undo[i].Val)
	}
	x.undo.Reset()
	x.releaseMarks()
	x.Active.Store(false)
}

// Commit publishes by withdrawing conflict-detection state; the data is
// already in place.
func (x *eagerTx) Commit() bool {
	// Eager conflict detection keeps running transactions disjoint, so no
	// commit-time validation is needed; only a pending abort request (from a
	// priority transaction) can invalidate us here.
	if x.Killed() {
		x.Blame(&x.Info, tm.CauseCMKill)
		return false
	}
	x.undo.Reset()
	x.releaseMarks()
	x.Active.Store(false)
	return true
}

func (x *eagerTx) releaseMarks() {
	for l := range x.ReadLines {
		x.sys.dir.dropReader(l, x.ID)
	}
	for l := range x.WriteLines {
		x.sys.dir.dropWriter(l, x.ID)
	}
	// Signatures are cleared only after memory is restored (rollback runs
	// the undo log first), so a reader that raced past a cleared signature
	// can only observe restored or committed data.
	x.readSig.Clear()
	x.writeSig.Clear()
	x.overflowed.Store(false)
}

func (x *eagerTx) pollAbort() {
	if x.Killed() {
		// Flagged by a priority transaction — arbitration killed us.
		x.Blame(&x.Info, tm.CauseCMKill)
		tm.Retry()
	}
}

// conflictWith resolves a conflict on line l against victim, attributing a
// requester-loses abort to cause (htm-conflict for precise directory hits,
// signature-conflict for Bloom hits). Requester loses: the caller aborts
// itself — unless it holds priority and outranks the victim, in which case
// the victim is flagged and the caller waits for it to withdraw (the
// paper's high-priority escape). When both hold priority the lower slot
// wins, so priority conflicts always have a global winner and cannot
// livelock. Returns only when the caller may retry the barrier.
func (x *eagerTx) conflictWith(victim *eagerTx, l mem.Line, cause tm.AbortCause) {
	if victim == nil {
		x.Info.Fail(cause, trace.LineKey(uint64(l)), tm.NoBlock)
	}
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

// checkOverflowSigs tests every other overflowed transaction's signatures
// for line l. write=true also conflicts with readers. The caller has
// already published its own mark (directory entry or signature bit), so of
// two racing conflicting transactions at least one sees the other.
func (x *eagerTx) checkOverflowSigs(l mem.Line, write bool) {
	for _, other := range x.sys.Txs {
		if other == x {
			continue
		}
		for other.Active.Load() && other.overflowed.Load() &&
			(other.writeSig.Test(uint32(l)) || (write && other.readSig.Test(uint32(l)))) {
			// Retries us, or waits out the victim. Bloom hits include false
			// positives, so they carry their own cause.
			x.conflictWith(other, l, tm.CauseSignatureConflict)
		}
	}
}

// trackCapacity accounts a newly acquired line in the capacity model and
// reports whether the speculative buffer still holds everything (false
// means the transaction must spill to signatures).
func (x *eagerTx) trackCapacity(l mem.Line) bool {
	if len(x.ReadLines)+len(x.WriteLines) >= x.Cfg.CapacityLines {
		return false
	}
	return x.sets.add(l)
}

// Load implements the eager read barrier.
func (x *eagerTx) Load(a mem.Addr) uint64 {
	x.Loads++
	x.pollAbort()
	l := mem.LineOf(a)
	if _, mine := x.ReadLines[l]; mine {
		return x.Mem.Load(a)
	}
	if _, mine := x.WriteLines[l]; mine {
		return x.Mem.Load(a)
	}
	// Ordering matters: (1) publish our own access (signature bit when
	// overflowed), (2) the directory operation (atomic publish+check for
	// directory-tracked transactions), (3) probe other transactions'
	// signatures, (4) touch memory. With every transaction publishing
	// before it probes, at least one side of any race sees the other.
	x.ReadLines[l] = struct{}{}
	if !x.overflowed.Load() && !x.trackCapacity(l) {
		x.spillToSignatures()
	}
	sigOnly := x.overflowed.Load()
	if sigOnly {
		x.readSig.Insert(uint32(l))
	}
	for {
		x.pollAbort()
		writer := x.sys.dir.addReader(l, x.ID, sigOnly)
		if writer < 0 {
			break
		}
		x.conflictWith(x.sys.Txs[writer], l, tm.CauseHTMConflict)
	}
	x.checkOverflowSigs(l, false)
	return x.Mem.Load(a)
}

// Store implements the eager write barrier: gain exclusive ownership, log
// the old value, write in place.
func (x *eagerTx) Store(a mem.Addr, v uint64) {
	x.Stores++
	x.pollAbort()
	l := mem.LineOf(a)
	// Failpoint: a spurious abort at the ownership claim looks exactly like
	// a precise directory conflict, so it carries that site's natural cause.
	// The undo log makes aborting here safe at any point in the attempt.
	if x.Chaos.Fire(chaos.HTMArbitrate, x.ID) {
		x.Info.Fail(tm.CauseHTMConflict, trace.LineKey(uint64(l)), tm.NoBlock)
	}
	if _, mine := x.WriteLines[l]; !mine {
		// Publish-then-probe; see the ordering comment in Load.
		x.WriteLines[l] = struct{}{}
		if _, alsoRead := x.ReadLines[l]; !alsoRead && !x.overflowed.Load() && !x.trackCapacity(l) {
			x.spillToSignatures()
		}
		sigOnly := x.overflowed.Load()
		if sigOnly {
			x.writeSig.Insert(uint32(l))
		}
		for {
			x.pollAbort()
			writerVictim, readers := x.sys.dir.claimWriter(l, x.ID, sigOnly, x.priority.Load())
			if writerVictim >= 0 {
				x.conflictWith(x.sys.Txs[writerVictim], l, tm.CauseHTMConflict)
				continue
			}
			if readers == 0 {
				break
			}
			if !x.priority.Load() {
				// Requester loses against the reader set; blame the first
				// reader holding the line.
				x.Info.Fail(tm.CauseHTMConflict, trace.LineKey(uint64(l)),
					x.BlockOf(bits.TrailingZeros64(readers)))
			}
			// Priority: the reservation above blocks new readers; flag the
			// current ones and wait until each drops its mark.
			for r := 0; r < 64; r++ {
				if readers&(1<<uint(r)) == 0 {
					continue
				}
				victim := x.sys.Txs[r]
				w := thread.Waiter{Parties: x.Cfg.Threads}
				for x.sys.dir.hasReader(l, r) {
					x.pollAbort()
					if !victim.priority.Load() || x.ID < victim.ID {
						victim.Kill(x.BlockOf(x.ID), l)
					} else {
						// Outranked; give way.
						x.Info.Fail(tm.CauseHTMConflict, trace.LineKey(uint64(l)),
							x.BlockOf(victim.ID))
					}
					w.Pause()
				}
			}
		}
		x.checkOverflowSigs(l, true)
	}
	// Log the old value only on the first store to a.
	if !x.undo.Contains(a) {
		x.undo.Insert(a, x.Mem.Load(a))
	}
	x.Mem.Store(a, v)
}

// spillToSignatures enters overflow mode: current and future lines are
// summarized in Bloom signatures that other transactions check
// conservatively. Directory marks for already-held lines are kept (they are
// precise and harmless); new lines stop acquiring directory marks.
func (x *eagerTx) spillToSignatures() {
	for l := range x.ReadLines {
		x.readSig.Insert(uint32(l))
	}
	for l := range x.WriteLines {
		x.writeSig.Insert(uint32(l))
	}
	x.overflowed.Store(true)
}

// EarlyRelease drops the reader mark for a line ("the eager HTM cannot
// perform early-release on addresses that hit in the Bloom filter", so in
// overflow mode the signature entry stays and keeps generating conflicts —
// the exact labyrinth+ behaviour from Section V).
func (x *eagerTx) EarlyRelease(a mem.Addr) {
	if !x.Cfg.EnableEarlyRelease {
		return
	}
	l := mem.LineOf(a)
	if _, mine := x.ReadLines[l]; !mine {
		return
	}
	if _, alsoWrite := x.WriteLines[l]; alsoWrite {
		return
	}
	if x.overflowed.Load() {
		return // cannot remove from a Bloom filter
	}
	x.sys.dir.dropReader(l, x.ID)
	delete(x.ReadLines, l)
}

// directory models the coherence-protocol side of conflict detection: for
// each line touched by a running transaction it records the writing
// transaction (exclusive) and the reader set (shared), sharded by line hash.
type directory struct {
	shards [256]dirShard
}

type dirShard struct {
	mu sync.Mutex
	m  map[mem.Line]lineOwn
	_  [40]byte // pad shards apart
}

type lineOwn struct {
	writer  int32 // slot, or -1
	readers uint64
}

func newDirectory() *directory {
	d := &directory{}
	for i := range d.shards {
		d.shards[i].m = make(map[mem.Line]lineOwn)
	}
	return d
}

func (d *directory) shard(l mem.Line) *dirShard {
	return &d.shards[(uint32(l)*2654435761)>>24]
}

// addReader records slot as a reader of l unless another transaction holds
// the writer mark; it returns that writer's slot, or -1 on success. In
// overflow mode (sigOnly) the conflict check still happens but no mark is
// recorded (the caller records a signature instead).
func (d *directory) addReader(l mem.Line, slot int, sigOnly bool) int32 {
	s := d.shard(l)
	s.mu.Lock()
	own, ok := s.m[l]
	if !ok {
		own = lineOwn{writer: -1}
	}
	if own.writer >= 0 && own.writer != int32(slot) {
		w := own.writer
		s.mu.Unlock()
		return w
	}
	if !sigOnly {
		own.readers |= 1 << uint(slot)
		s.m[l] = own
	}
	s.mu.Unlock()
	return -1
}

// claimWriter tries to make slot the exclusive writer of l.
//
// It returns (writerConflict, readerMask): writerConflict >= 0 names another
// transaction holding the writer slot; otherwise readerMask holds the other
// current readers (0 = success, the line is ours). With reserve set (the
// high-priority escape), the writer slot is claimed even while readers
// remain — the reservation blocks new readers so the priority transaction
// can drain the existing ones instead of chasing rejoining readers forever
// (LogTM's sticky-state trick; without it a priority writer livelocks
// against a crowd of readers on a hot line).
func (d *directory) claimWriter(l mem.Line, slot int, sigOnly, reserve bool) (int32, uint64) {
	s := d.shard(l)
	s.mu.Lock()
	own, ok := s.m[l]
	if !ok {
		own = lineOwn{writer: -1}
	}
	if own.writer >= 0 && own.writer != int32(slot) {
		w := own.writer
		s.mu.Unlock()
		return w, 0
	}
	others := own.readers &^ (1 << uint(slot))
	switch {
	case others == 0 && !sigOnly:
		own.writer = int32(slot) // clean exclusive claim
		s.m[l] = own
	case others != 0 && reserve:
		own.writer = int32(slot) // reservation: block new readers, drain old
		s.m[l] = own
	}
	s.mu.Unlock()
	return -1, others
}

// hasReader reports whether slot currently holds a reader mark on l.
func (d *directory) hasReader(l mem.Line, slot int) bool {
	s := d.shard(l)
	s.mu.Lock()
	own, ok := s.m[l]
	s.mu.Unlock()
	return ok && own.readers&(1<<uint(slot)) != 0
}

// dropReader removes slot's reader mark on l.
func (d *directory) dropReader(l mem.Line, slot int) {
	s := d.shard(l)
	s.mu.Lock()
	if own, ok := s.m[l]; ok {
		own.readers &^= 1 << uint(slot)
		if own.readers == 0 && own.writer < 0 {
			delete(s.m, l)
		} else {
			s.m[l] = own
		}
	}
	s.mu.Unlock()
}

// dropWriter removes slot's writer mark on l.
func (d *directory) dropWriter(l mem.Line, slot int) {
	s := d.shard(l)
	s.mu.Lock()
	if own, ok := s.m[l]; ok && own.writer == int32(slot) {
		own.writer = -1
		if own.readers == 0 {
			delete(s.m, l)
		} else {
			s.m[l] = own
		}
	}
	s.mu.Unlock()
}
