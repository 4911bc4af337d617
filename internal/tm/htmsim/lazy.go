package htmsim

import (
	"sync"

	"github.com/stamp-go/stamp/internal/mem"
	"github.com/stamp-go/stamp/internal/tm"
	"github.com/stamp-go/stamp/internal/tm/chaos"
	"github.com/stamp-go/stamp/internal/tm/trace"
	"github.com/stamp-go/stamp/internal/tm/txset"
)

// Lazy simulates the paper's TCC-style lazy HTM: speculative writes are
// buffered, conflict detection happens at commit through the "coherence
// protocol" (here: tm.Arbiter, a commit arbiter that probes every active
// transaction's line sets and aborts overlapping ones — committer wins, with
// a seqlock epoch keeping racing read barriers consistent), detection is at
// 32-byte line granularity, aborted transactions restart immediately with no
// backoff, and capacity overflow temporarily serializes transaction
// execution, exactly as described in Section IV.
type Lazy struct {
	*tm.Runtime[*lazyTx]
	arb      tm.Arbiter
	serialMu sync.RWMutex
}

// NewLazy constructs the TCC-style HTM simulation.
func NewLazy(cfg tm.Config) (*Lazy, error) {
	// As on the eager HTM, hardware conflict resolution (committer wins)
	// stays fixed; the pluggable policy only governs the restart delay,
	// defaulting to the paper's immediate restart.
	rt, err := tm.NewRuntime[*lazyTx]("htm-lazy", cfg, tm.NoCM)
	if err != nil {
		return nil, err
	}
	s := &Lazy{Runtime: rt}
	s.arb.Parties = rt.Cfg.Threads
	rt.Bind(func(int) *lazyTx {
		return &lazyTx{
			sys:        s,
			readSet:    newLineSet(capacityLines),
			writeSet:   newLineSet(capacityLines),
			sets:       new(setTracker),
			serialRead: make(map[mem.Line]struct{}),
			serialWrit: make(map[mem.Line]struct{}),
		}
	})
	return s, nil
}

type lazyTx struct {
	tm.TxCore
	tm.Flagged // killed by committers whose write lines we hold
	sys        *Lazy

	readSet  *lineSet
	writeSet *lineSet
	sets     *setTracker    // associativity model (Table V: 4-way)
	wbuf     txset.WriteSet // speculative word buffer (redo log)

	// serial (overflow) mode: the transaction runs alone with direct memory
	// access; plain maps suffice and have no capacity limit. serial selects
	// the mode for the block's next attempt; heldSerial records which lock
	// the current attempt actually took (overflow flips serial mid-attempt).
	serial     bool
	heldSerial bool
	serialRead map[mem.Line]struct{}
	serialWrit map[mem.Line]struct{}
	serialUndo []undoRec // old values of serial-mode in-place stores
}

// undoRec is one serial-mode in-place store's pre-image (see rollbackSerial).
type undoRec struct {
	a mem.Addr
	v uint64
}

// LineCounts overrides the core's with the line sets of the speculative
// buffer model (or the serial maps).
func (x *lazyTx) LineCounts() (reads, writes int, ok bool) {
	if x.serial {
		return len(x.serialRead), len(x.serialWrit), true
	}
	return x.readSet.len(), x.writeSet.len(), true
}

// Begin starts every block speculative: serial mode is per-block state, so
// the first attempt clears it — on every exit path of the previous block,
// commit or terminal unwind alike, the next block must not serialize the
// system for an overflow it did not have.
func (x *lazyTx) Begin(aborts int, _ bool) {
	if aborts == 0 {
		x.serial = false
	}
	x.heldSerial = x.serial
	if x.serial {
		// Overflow: wait until we are the only transaction in the system,
		// then execute non-speculatively ("temporarily serializes the
		// execution of transactions").
		x.sys.serialMu.Lock()
		clear(x.serialRead)
		clear(x.serialWrit)
		x.serialUndo = x.serialUndo[:0]
		return
	}
	x.sys.serialMu.RLock()
	x.readSet.clear()
	x.writeSet.clear()
	x.sets.reset()
	x.wbuf.Reset()
	x.Arm()
}

// failKilled unwinds an attempt a committer flagged.
func (x *lazyTx) failKilled() {
	x.Blame(&x.Info, tm.CauseHTMConflict)
	tm.Retry()
}

// Touches implements tm.Victim over the precise line sets.
func (x *lazyTx) Touches(l mem.Line) bool { return x.readSet.contains(l) || x.writeSet.contains(l) }

// Rollback runs after every failed attempt: undo, then release begin's lock.
func (x *lazyTx) Rollback() {
	x.rollbackSerial()
	x.end()
}

// rollbackSerial replays a failed serial attempt's undo log (newest first)
// while the serial lock is still held, so an explicit Restart or a terminal
// allocation miss in overflow mode never exposes partial in-place writes.
// No-op for speculative attempts (their writes never left the buffer).
func (x *lazyTx) rollbackSerial() {
	if !x.heldSerial {
		return
	}
	for i := len(x.serialUndo) - 1; i >= 0; i-- {
		x.Mem.Store(x.serialUndo[i].a, x.serialUndo[i].v)
	}
	x.serialUndo = x.serialUndo[:0]
}

// end releases begin's locks after a commit or an abort.
func (x *lazyTx) end() {
	if x.heldSerial {
		x.sys.serialMu.Unlock()
		return
	}
	x.Active.Store(false)
	x.sys.serialMu.RUnlock()
}

// overflow switches the next attempt to serial mode and aborts this one,
// attributing the abort to the line whose insert tripped the capacity or
// associativity limit.
func (x *lazyTx) overflow(l mem.Line) {
	x.serial = true
	x.Info.Fail(tm.CauseHTMCapacity, trace.LineKey(uint64(l)), tm.NoBlock)
}

// Load implements the HTM read barrier (in hardware this is an implicit,
// free cache access; the bookkeeping here is the simulation's price).
func (x *lazyTx) Load(a mem.Addr) uint64 {
	x.Loads++
	if x.serial {
		x.serialRead[mem.LineOf(a)] = struct{}{}
		return x.Mem.Load(a)
	}
	if x.wbuf.MayContain(a) {
		if v, ok := x.wbuf.Get(a); ok {
			return v
		}
	}
	if x.Killed() {
		x.failKilled()
	}
	l := mem.LineOf(a)
	if added, ok := x.readSet.insert(l); !ok || added && !x.writeSet.contains(l) && !x.sets.add(l) {
		x.overflow(l) // the line's set of the speculative buffer is full
	}
	v, ok := x.sys.arb.Read(&x.Flagged, x.Mem, a)
	if !ok {
		x.failKilled()
	}
	return v
}

// Store implements the HTM write barrier: buffer the word, track the line.
func (x *lazyTx) Store(a mem.Addr, v uint64) {
	x.Stores++
	if x.serial {
		x.serialWrit[mem.LineOf(a)] = struct{}{}
		x.serialUndo = append(x.serialUndo, undoRec{a: a, v: x.Mem.Load(a)})
		x.Mem.Store(a, v)
		return
	}
	if x.Killed() {
		x.failKilled()
	}
	x.wbuf.Put(a, v)
	l := mem.LineOf(a)
	if added, ok := x.writeSet.insert(l); !ok || added && !x.readSet.contains(l) && !x.sets.add(l) {
		x.overflow(l)
	}
}

// EarlyRelease drops a line from the speculative read set so it no longer
// raises conflicts — the labyrinth optimization. Lines also in the write set
// stay tracked.
func (x *lazyTx) EarlyRelease(a mem.Addr) {
	if !x.Cfg.EnableEarlyRelease {
		return
	}
	l := mem.LineOf(a)
	if x.serial {
		delete(x.serialRead, l)
		return
	}
	if !x.writeSet.contains(l) {
		if x.readSet.contains(l) {
			x.sets.drop(l)
		}
		x.readSet.remove(l)
	}
}

// Commit arbitrates: flag every active transaction whose read or write set
// overlaps our write set, then write back. Committer wins.
func (x *lazyTx) Commit() bool {
	if !x.arbitrate() {
		return false
	}
	x.end()
	return true
}

func (x *lazyTx) arbitrate() bool {
	if x.serial {
		// Never inject here: serial mode already wrote memory in place, and
		// nothing can conflict with a transaction that runs alone.
		return true
	}
	// Failpoint: a spurious abort at commit arbitration looks exactly like
	// losing the committer-wins race, so it carries that natural cause.
	if x.Chaos.Fire(chaos.HTMArbitrate, x.ID) {
		x.Info.Set(tm.CauseHTMConflict, 0, tm.NoBlock)
		return false
	}
	// Read-only: correctness is guaranteed by the abort flag (any
	// conflicting committer flagged us before writing back).
	ok := !x.Killed()
	if x.wbuf.Len() > 0 {
		ok = tm.CommitWins(&x.sys.arb, x, x.sys.Txs, x.BlockOf(x.ID), x.wbuf.Entries(), x.Mem)
	}
	if !ok {
		x.Blame(&x.Info, tm.CauseHTMConflict)
	}
	return ok
}
