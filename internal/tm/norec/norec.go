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
// # Commit combining
//
// The single lock makes writebacks the scaling wall at high thread counts.
// To move it, writers publish their validated redo and read logs to a
// per-thread combining slot for the whole duration of their commit attempt.
// The committer that wins the sequence-lock CAS becomes the combiner: after
// its own writeback it scans the slots and, for each pending request whose
// read set still validates by value against current memory, applies that
// request's writes too — absorbing the commit under the same lock
// acquisition, with a single seq tick for the whole batch (so concurrent
// readers revalidate once instead of once per commit). A request whose read
// set no longer validates (an overlapping write set changed a value it
// observed) is rejected, and its owner falls back to the ordinary
// revalidate-and-retry loop. Before releasing, the combiner holds the lock
// open for a bounded beat while other writers are mid-commit, so batches
// form even when goroutines outnumber cores. tm.ThreadStats counts absorbed
// commits (CombinedCommits) and rejections (CombineFallbacks);
// tm.Config.NoCombine disables the whole mechanism for ablations.
//
// Two registered variants expose the cost of the read-only commit rule as
// a comparison axis:
//
//	stm-norec     read-only transactions also serialize through the
//	              sequence lock at commit (every commit ticks the clock)
//	stm-norec-ro  the paper's read-only fast path: a transaction with an
//	              empty write set commits immediately, with no lock
//	              acquisition and no clock tick
package norec

import (
	"runtime"
	"sync/atomic"

	"github.com/stamp-go/stamp/internal/mem"
	"github.com/stamp-go/stamp/internal/tm"
	"github.com/stamp-go/stamp/internal/tm/chaos"
	"github.com/stamp-go/stamp/internal/tm/trace"
	"github.com/stamp-go/stamp/internal/tm/txset"
)

// Combining-request states. A slot belongs to its thread while reqIdle; a
// combiner takes ownership with a pending→claimed CAS and hands it back by
// resolving to reqDone or reqRejected. Claims happen only under the
// sequence lock, which is what makes the requester's own "CAS the lock,
// then retract my pending request with a plain store" sequence safe: a
// successful lock CAS proves no combiner tenure overlapped it.
const (
	reqIdle uint32 = iota
	reqPending
	reqClaimed
	reqDone
	reqRejected
)

// combineRounds bounds how many drain passes (and scheduler yields) one
// lock acquisition may spend absorbing peers, so readers waiting for
// quiescence are delayed by at most a few beats.
const combineRounds = 4

// combineYieldMinThreads is the thread count from which writers always
// yield between publishing their request and attempting the lock CAS, so
// commit batches form even when goroutines outnumber cores. Below it the
// yield happens only when another writer is observably mid-commit: the
// writeback wall is a high-thread-count phenomenon, and an uncontended or
// lightly-threaded commit should not pay a scheduler round-trip.
const combineYieldMinThreads = 8

// combineReq is one thread's combining slot. The slices are published by
// the owner (plain writes, then an atomic status store) and read by the
// combiner between claim and resolve; the owner is spinning on status the
// whole time, so they never race.
type combineReq struct {
	status atomic.Uint32
	reads  []txset.ReadEntry
	writes []txset.Entry
	_      [64]byte // pad slots apart (combiners scan the array cross-thread)
}

// System is one NOrec runtime instance. The entire shared state of the
// algorithm is the seq word plus the combining array; everything else is
// per-thread.
type System struct {
	*tm.Runtime[*norecTx]
	roFast bool // read-only commit fast path (the stm-norec-ro variant)

	// seq is the global sequence lock: even = quiescent, odd = a committer
	// is writing back. It doubles as the version clock transactions
	// snapshot at begin. It is the hottest word in the system — every
	// writer commit CASes it and every in-flight reader polls it — so it
	// is padded onto its own cache line to stop the commit traffic from
	// false-sharing with the counters below.
	seq tm.PaddedUint64

	// lockAcquires counts successful sequence-lock acquisitions, the test
	// hook that lets callers assert the read-only fast path never takes
	// the lock. Absorbed (combined) commits do not acquire the lock and do
	// not count here — that is the point of combining.
	lockAcquires atomic.Uint64

	// combining enables commit combining (default; tm.Config.NoCombine
	// turns it off for ablations).
	combining bool

	// inCommit counts writers currently inside a commit attempt; the
	// combiner uses it to decide whether holding the lock open one more
	// beat could absorb anyone.
	inCommit atomic.Int32

	combine []combineReq // one slot per thread
}

// New constructs the plain NOrec runtime ("stm-norec").
func New(cfg tm.Config) (*System, error) { return newSystem(cfg, "stm-norec", false) }

// NewRO constructs the NOrec runtime with the read-only commit fast path
// ("stm-norec-ro").
func NewRO(cfg tm.Config) (*System, error) { return newSystem(cfg, "stm-norec-ro", true) }

func newSystem(cfg tm.Config, name string, roFast bool) (*System, error) {
	rt, err := tm.NewRuntime[*norecTx](name, cfg, tm.DefaultCM)
	if err != nil {
		return nil, err
	}
	s := &System{Runtime: rt, roFast: roFast, combining: !rt.Cfg.NoCombine}
	s.combine = make([]combineReq, rt.Cfg.Threads)
	rt.Bind(func(int) *norecTx { return &norecTx{sys: s} })
	return s, nil
}

// Seq returns the current sequence-lock value (even = quiescent).
func (s *System) Seq() uint64 { return s.seq.Load() }

// LockAcquires returns how many commits acquired the sequence lock. With
// the read-only fast path, read-only transactions never contribute here;
// with combining, absorbed commits don't either.
func (s *System) LockAcquires() uint64 { return s.lockAcquires.Load() }

// waitQuiescent spins until seq is even and returns it. It yields to the
// scheduler periodically so a committer that holds the lock can finish its
// writeback even when goroutines outnumber cores.
func (s *System) waitQuiescent() uint64 {
	for spins := 0; ; spins++ {
		if v := s.seq.Load(); v&1 == 0 {
			return v
		}
		if spins&127 == 127 {
			runtime.Gosched()
		}
	}
}

// drainCombine is the combiner side of commit combining. The caller holds
// the sequence lock (seq odd) and has finished its own writeback. Each
// pass claims every pending request, value-validates its read set against
// current memory (which includes all writes applied so far in this batch),
// and either applies its redo log or rejects it. Passes repeat while they
// absorb anything; when nothing is pending but other writers are mid-commit,
// the lock is held open for one scheduler beat so they can publish —
// bounded by combineRounds so waiting readers are not starved.
func (s *System) drainCombine(self int) {
	for round := 0; round < combineRounds; round++ {
		absorbed := false
		for i := range s.combine {
			if i == self {
				continue
			}
			r := &s.combine[i]
			if r.status.Load() != reqPending {
				continue
			}
			if !r.status.CompareAndSwap(reqPending, reqClaimed) {
				continue // the owner withdrew it first
			}
			valid := true
			for _, e := range r.reads {
				if s.Cfg.Arena.Load(e.Addr) != e.Val {
					valid = false
					break
				}
			}
			if !valid {
				r.status.Store(reqRejected)
				continue
			}
			for _, e := range r.writes {
				s.Cfg.Arena.Store(e.Addr, e.Val)
			}
			r.status.Store(reqDone)
			absorbed = true
		}
		if absorbed {
			continue // our writes may have been the batch-mates others waited on
		}
		if round == combineRounds-1 || s.inCommit.Load() <= 1 {
			return // nobody left to absorb (inCommit counts us too)
		}
		if runtime.GOMAXPROCS(0) == 1 {
			// No parallelism: every writer that could publish in this beat
			// already parked at its post-publish yield, so holding the lock
			// open only delays waiting readers.
			return
		}
		runtime.Gosched() // the combining window: let a mid-commit writer publish
	}
}

type norecTx struct {
	tm.TxCore
	sys *System

	snapshot uint64         // even seq value the read set is known valid at
	rset     txset.ReadSet  // value-validation log (NOrec validates by value)
	wset     txset.WriteSet // redo log (insertion order = writeback order)
}

func (x *norecTx) Begin(tm.BlockID, int) {
	x.snapshot = x.sys.waitQuiescent()
	x.rset.Reset()
	x.wset.Reset()
}

// Rollback has nothing to undo: NOrec holds no protocol state between
// attempts (writes are buffered, the combining slot is idle outside
// Commit). Its conflicts surface as value-validation failures with no
// identifiable enemy, so priority policies degrade to their delay behavior
// on this runtime, and conflict attribution blames no block — only the
// first stale address the revalidation pass tripped on is known.
func (x *norecTx) Rollback() {}

// Load implements the NOrec read barrier: write-buffer lookup (one filter
// word rejects the common no-possible-hit case before any probing), then a
// read that is consistent with the snapshot. If the global clock moved since
// the snapshot, the whole read set is revalidated by value before the read
// is retried, so a doomed transaction can never observe a mixed-epoch state
// (opacity).
func (x *norecTx) Load(a mem.Addr) uint64 {
	x.Loads++
	if v, ok := x.wset.Get(a); ok {
		return v
	}
	v := x.Mem.Load(a)
	for x.sys.seq.Load() != x.snapshot {
		s, bad, ok := x.revalidate()
		if !ok {
			x.Info.Fail(tm.CauseSeqChanged, trace.AddrKey(uint64(bad)), tm.NoBlock)
		}
		x.snapshot = s
		v = x.Mem.Load(a)
	}
	x.rset.Add(a, v)
	x.NoteRead(a)
	return v
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
	x.NoteWrite(a)
}

// EarlyRelease is a no-op: there is no per-location metadata to release,
// and dropping a read record would only skip one value comparison. Keeping
// the entry is always safe (value-based validation never manufactures false
// conflicts at word granularity).
func (x *norecTx) EarlyRelease(mem.Addr) {}

// Commit acquires the sequence lock (CAS even -> odd), writes the redo log
// back, and releases (snapshot+2). A failed CAS means some other commit
// ticked the clock; with combining enabled the transaction's logs are
// published for the lock holder to absorb, otherwise (and as the fallback)
// the read set is revalidated and the CAS retried from the newer snapshot.
// With the read-only fast path enabled, an empty write set commits
// immediately: every Load already validated against a quiescent snapshot,
// so the read set was atomically valid at that snapshot.
func (x *norecTx) Commit() bool {
	// Failpoint: a spurious abort at writer-commit validation looks exactly
	// like a value-validation failure, so it carries that natural cause.
	// Read-only commits are exempt — they have nothing to starve on.
	if x.wset.Len() > 0 && x.Chaos.Fire(chaos.NorecValidate, x.ID) {
		x.Info.Set(tm.CauseSeqChanged, 0, tm.NoBlock)
		return false
	}
	if x.wset.Len() == 0 {
		if x.sys.roFast {
			return true
		}
		// Plain variant: read-only commits serialize through the lock, one
		// acquisition each (the LockAcquires contract). They publish no
		// request, so combining never absorbs them; commitDirect's
		// writeback loop is empty here.
		return x.commitDirect()
	}
	if !x.sys.combining {
		return x.commitDirect()
	}
	return x.commitCombining()
}

// commitDirect is the original NOrec writer commit (used with combining
// disabled): CAS loop with revalidation, then writeback under the lock.
func (x *norecTx) commitDirect() bool {
	for !x.sys.seq.CompareAndSwap(x.snapshot, x.snapshot+1) {
		s, bad, ok := x.revalidate()
		if !ok {
			x.Info.Set(tm.CauseSeqChanged, trace.AddrKey(uint64(bad)), tm.NoBlock)
			return false
		}
		x.snapshot = s
	}
	x.sys.lockAcquires.Add(1)
	for _, e := range x.wset.Entries() {
		x.Mem.Store(e.Addr, e.Val)
	}
	// Failpoint: stall between writeback and the release tick — the window
	// where this committer holds the one global lock and everyone waits.
	x.Chaos.Stall(chaos.NorecSeqTick, x.ID)
	x.sys.seq.Store(x.snapshot + 2)
	return true
}

// commitCombining is the writer commit with combining: publish our logs,
// then either win the lock (and combine peers) or get absorbed by whoever
// did. See the package comment for the protocol and its safety argument.
func (x *norecTx) commitCombining() bool {
	sys := x.sys
	sys.inCommit.Add(1)
	defer sys.inCommit.Add(-1)
	r := &sys.combine[x.ID]
	r.reads = x.rset.Entries()
	r.writes = x.wset.Entries()
	r.status.Store(reqPending)
	if sys.Cfg.Threads >= combineYieldMinThreads || sys.inCommit.Load() > 1 {
		// One yield between publish and the first CAS lets batches form even
		// when goroutines outnumber cores: every writer scheduled in this
		// beat parks its request first, and whichever one wins the lock
		// drains all of them under a single acquisition. On idle multicore
		// hardware the yield returns immediately.
		runtime.Gosched()
	}
	for spins := 0; ; spins++ {
		switch r.status.Load() {
		case reqDone:
			r.status.Store(reqIdle)
			x.Stats.CombinedCommits++
			return true
		case reqRejected:
			// The combiner saw one of our read values change under its
			// batch; fall back to the ordinary revalidate path, which
			// usually aborts (and tolerates the rare value that changed
			// back, in which case we republish).
			r.status.Store(reqIdle)
			x.Stats.CombineFallbacks++
			s, bad, ok := x.revalidate()
			if !ok {
				x.Info.Set(tm.CauseSeqChanged, trace.AddrKey(uint64(bad)), tm.NoBlock)
				return false
			}
			x.snapshot = s
			r.status.Store(reqPending)
			continue
		case reqClaimed:
			// A combiner is validating/applying our logs; it resolves the
			// slot before it releases the lock.
			if spins&127 == 127 {
				runtime.Gosched()
			}
			continue
		}
		// Still pending: try to win the lock ourselves. A successful CAS
		// proves no combiner tenure overlapped since we (re)published —
		// claims happen only under the lock — so retracting our request
		// with a plain store cannot race a claim.
		if sys.seq.CompareAndSwap(x.snapshot, x.snapshot+1) {
			r.status.Store(reqIdle)
			sys.lockAcquires.Add(1)
			for _, e := range x.wset.Entries() {
				x.Mem.Store(e.Addr, e.Val)
			}
			sys.drainCombine(x.ID)
			// Failpoint: stall while holding the sequence lock (see
			// commitDirect); with combining the whole batch is held open.
			x.Chaos.Stall(chaos.NorecSeqTick, x.ID)
			sys.seq.Store(x.snapshot + 2)
			return true
		}
		if sys.seq.Load()&1 != 0 {
			// A combiner holds the lock: stay published — this is exactly
			// the window in which it can absorb us.
			if spins&127 == 127 {
				runtime.Gosched()
			}
			continue
		}
		// Quiescent but our snapshot is stale. Revalidate while still
		// published (a new lock holder may absorb us meanwhile), then
		// re-check the slot before acting on the result.
		s, bad, ok := x.revalidate()
		switch r.status.Load() {
		case reqDone:
			r.status.Store(reqIdle)
			x.Stats.CombinedCommits++
			return true
		case reqRejected:
			r.status.Store(reqIdle)
			x.Stats.CombineFallbacks++
			if !ok {
				x.Info.Set(tm.CauseSeqChanged, trace.AddrKey(uint64(bad)), tm.NoBlock)
				return false
			}
			x.snapshot = s
			r.status.Store(reqPending)
			continue
		case reqClaimed:
			continue // resolves shortly; the loop re-checks the slot
		}
		if !ok {
			// Abort — but withdraw the request first; losing the withdraw
			// race to a claimer means the outcome is about to be decided
			// for us, so loop and honor it instead.
			if r.status.CompareAndSwap(reqPending, reqIdle) {
				x.Info.Set(tm.CauseSeqChanged, trace.AddrKey(uint64(bad)), tm.NoBlock)
				return false
			}
			continue
		}
		x.snapshot = s
	}
}
