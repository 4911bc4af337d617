package tm

import (
	"fmt"
	"sync/atomic"
	"time"

	"github.com/stamp-go/stamp/internal/mem"
	"github.com/stamp-go/stamp/internal/tm/chaos"
	"github.com/stamp-go/stamp/internal/tm/trace"
)

// This file is the one transaction driver. Every runtime — the sequential
// baseline included — is a Runtime[T] over its own transaction type T, and
// every atomic block of every runtime runs through Worker.AtomicAt below:
// the only retry loop, the only caller of Attempt, and the only place that
// accounts commits, aborts, causes, wasted work and block time. A runtime
// package holds just its protocol: the barriers (Tx) and three hooks.

// Protocol is what a runtime implements per worker slot: the barriers
// applications see (Tx) plus the three per-attempt hooks the driver calls.
// The type must embed TxCore, which supplies Alloc, Free, Peek, Restart,
// LineCounts and the accounting registers the driver reads.
//
//	Begin(aborts, readOnly)
//	                  start attempt number aborts (0 = first) of the block;
//	                  readOnly is the block's NewROBlock mark, looked up
//	                  once per block entry by the driver. The core's
//	                  registers are already reset. State that must not leak
//	                  from one block into the next (htm-lazy's serial mode,
//	                  htm-eager's priority, stm-mv's snapshot mode, NOrec's
//	                  log-free mode) is a function of aborts and readOnly,
//	                  decided here.
//	Commit()          try to commit after the body returned normally. True:
//	                  the attempt is durable and every protocol resource is
//	                  released. False: stamp Info with the cause and leave
//	                  the cleanup to Rollback.
//	Rollback()        undo and release after a failed attempt — the body
//	                  unwound with Retry, or Commit returned false. Always
//	                  runs before the abort is accounted, so a terminal
//	                  unwind (BailAlloc) never holds a lock, a signature or
//	                  a serial mode.
type Protocol interface {
	Tx
	Begin(aborts int, readOnly bool)
	Commit() bool
	Rollback()
	// LineCounts reports the committed attempt's unique 32-byte lines read
	// and written; ok is false when the runtime is not tracking them.
	LineCounts() (reads, writes int, ok bool)
	core() *TxCore
}

// Shared is the protocol-independent state of one runtime instance, visible
// to every transaction through its embedded TxCore.
type Shared struct {
	Cfg   Config          // defaults applied, validated
	Chaos *chaos.Injector // nil unless Config.Chaos armed failpoints

	name  string
	cores []*TxCore // per slot, for conflict arbitration, blame and the drain

	// The escalation gate (gate.go): gatePending counts escalations queued
	// or running; gateLock is the irrevocability token, a CAS spinlock so
	// every wait on it can poll the watch.
	gatePending atomic.Int32
	gateLock    atomic.Uint32
}

// BlockOf returns the atomic block the transaction occupying slot is
// currently executing (NoBlock when idle or out of range), for blaming the
// enemy call site in conflict attribution.
func (s *Shared) BlockOf(slot int) BlockID {
	if uint(slot) < uint(len(s.cores)) {
		return s.cores[slot].block()
	}
	return NoBlock
}

// TxCore is the part of a transaction every runtime shares. Runtimes embed
// it in their transaction type; the driver reads it for accounting.
type TxCore struct {
	*Shared

	// Info is the pending-abort registers: reset by the driver before Begin,
	// stamped at every abort site, read by the driver's abort accounting.
	Info AbortInfo
	// Loads and Stores count the current attempt's barriers; the barriers
	// bump them.
	Loads  uint64
	Stores uint64

	ID    int          // worker slot
	Mem   *mem.Arena   // Cfg.Arena, one dereference closer to the barriers
	Stats *ThreadStats // this worker's record, for protocol counters

	cm  ContentionManager // this worker's policy: the driver's hooks, Conflict
	res *mem.Reserver     // thread-private allocation chunk and free lists

	// curBlock publishes the block this worker is inside, or outside, so
	// enemies that abort against it (or that it kills) can blame the call
	// site; it is also the escalation gate's in-a-block flag.
	curBlock atomic.Int32
	// irrevocable is set while this worker holds the escalation token; it
	// is read cross-thread at conflict sites.
	irrevocable atomic.Bool
}

func (c *TxCore) core() *TxCore { return c }

// block reads curBlock as a BlockID, outside reading as NoBlock.
func (c *TxCore) block() BlockID {
	if b := c.curBlock.Load(); b != outside {
		return BlockID(b)
	}
	return NoBlock
}

// reset clears the per-attempt registers.
func (c *TxCore) reset() {
	c.Info.Reset()
	c.Loads, c.Stores = 0, 0
}

// LineCounts implements Protocol for runtimes that keep no line sets; the
// simulated HTMs, whose conflict detection tracks lines, override it.
func (c *TxCore) LineCounts() (reads, writes int, ok bool) { return 0, 0, false }

// Alloc carves from the thread's reserver: free lists, then the private
// line-aligned chunk, then the shared arena. Line-aligned chunks keep one
// thread's allocations off another's conflict-detection lines — on the
// line-granularity runtimes (simulated HTMs, hybrids) allocator false
// sharing is a real abort; recycled free-list blocks weaken that
// disjointness, trading spurious conflicts for a bounded arena high-water.
// A real capacity miss unwinds terminally via FailAlloc — one typed failure
// shape on every runtime, seq included; the alloc-exhaust failpoint injects
// only the abort. Either way the attempt aborts like any other, so undo
// logs replay and serial modes release before the block unwinds.
func (c *TxCore) Alloc(n int) mem.Addr {
	if c.Chaos.Fire(chaos.AllocExhaust, c.ID) {
		c.Info.Fail(CauseAllocExhausted, 0, NoBlock)
	}
	a, err := c.res.TxAlloc(n)
	if err != nil {
		c.Info.FailAlloc(err)
	}
	return a
}

// Free defers the release to commit time (an abort drops it), recycling the
// block through the thread's free lists.
func (c *TxCore) Free(a mem.Addr, n int) { c.res.TxFree(a, n) }

// Peek is an uninstrumented read (documented on Tx). With lazy versioning
// it does not see the transaction's own buffered writes; with eager
// versioning it may observe another transaction's in-place speculative
// value — the only sanctioned use (labyrinth privatization) tolerates stale
// or in-flight grid data by revalidating inside the transaction, exactly as
// the paper describes. On a real HTM every access is implicitly tracked, so
// STAMP uses Peek only on software and hybrid systems; the simulated HTMs
// provide it for API uniformity.
func (c *TxCore) Peek(a mem.Addr) uint64 { return c.Mem.Load(a) }

// Restart implements Tx.
func (c *TxCore) Restart() { c.Info.Fail(CauseExplicitRetry, 0, NoBlock) }

// Runtime is the protocol-independent half of a TM system: the worker
// slots, their statistics and contention managers, and the System
// accessors. A runtime's system type embeds *Runtime[T] next to its own
// shared protocol state (lock table, sequence lock, claim locks, ...).
type Runtime[T Protocol] struct {
	Shared
	// Txs is every slot's transaction, for protocols whose conflict
	// detection probes their peers.
	Txs []T

	workers []*Worker[T]
	cmFor   func(id int, st *ThreadStats) ContentionManager
}

// NewRuntime runs the constructor prologue every runtime shares: complete
// and validate the config, resolve the contention-management policy
// (fallback when Config.CM is empty) and build the fault injector. The
// caller then builds its protocol state from rt.Cfg and calls Bind.
func NewRuntime[T Protocol](name string, cfg Config, fallbackCM string) (*Runtime[T], error) {
	cfg = cfg.Defaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	pool, err := NewCMPool(cfg, fallbackCM)
	if err != nil {
		return nil, err
	}
	inj, err := chaos.New(cfg.Chaos, cfg.Threads)
	if err != nil {
		return nil, fmt.Errorf("tm: %w", err)
	}
	return &Runtime[T]{Shared: Shared{Cfg: cfg, Chaos: inj, name: name}, cmFor: pool.ForThread}, nil
}

// Bind builds the worker slots: mk returns each slot's transaction with the
// protocol's own fields set, and Bind fills the embedded core — slot,
// arena, tracer, contention manager and reserver.
func (rt *Runtime[T]) Bind(mk func(slot int) T) {
	cfg := rt.Cfg
	for i := 0; i < cfg.Threads; i++ {
		w := &Worker[T]{tx: mk(i)}
		w.stats.Tracer = cfg.NewTracer()
		c := w.tx.core()
		c.Shared, c.ID, c.Mem, c.Stats = &rt.Shared, i, cfg.Arena, &w.stats
		c.cm = rt.cmFor(i, &w.stats)
		c.res = cfg.NewReserver()
		c.curBlock.Store(outside)
		w.core = c
		rt.workers = append(rt.workers, w)
		rt.Txs = append(rt.Txs, w.tx)
		rt.cores = append(rt.cores, c)
	}
}

// Name implements System.
func (rt *Runtime[T]) Name() string { return rt.name }

// Arena implements System.
func (rt *Runtime[T]) Arena() *mem.Arena { return rt.Cfg.Arena }

// NThreads implements System.
func (rt *Runtime[T]) NThreads() int { return rt.Cfg.Threads }

// Thread implements System.
func (rt *Runtime[T]) Thread(id int) Thread { return rt.workers[id] }

// Stats implements System.
func (rt *Runtime[T]) Stats() Stats {
	per := make([]*ThreadStats, len(rt.workers))
	for i, w := range rt.workers {
		per[i] = &w.stats
	}
	return Aggregate(per)
}

// Worker is one worker slot of a Runtime: the Thread applications hold.
type Worker[T Protocol] struct {
	stats ThreadStats
	tx    T
	core  *TxCore // tx's embedded core: slot, manager, registers
}

// ID implements Thread.
func (w *Worker[T]) ID() int { return w.core.ID }

// Stats implements Thread.
func (w *Worker[T]) Stats() *ThreadStats { return &w.stats }

// Atomic implements Thread.
func (w *Worker[T]) Atomic(fn func(Tx)) { w.AtomicAt(NoBlock, fn) }

// blockClockOrigin is what block timers measure from. time.Since on a fixed
// origin reads the monotonic clock once; time.Now reads it and the wall
// clock, and on virtualized hosts each read costs as much as a dozen
// barriers — the saved read pays for publishing curBlock on the runtimes
// (seq, NOrec) that never needed to.
var blockClockOrigin = time.Now()

// AtomicAt implements Thread: the transaction lifecycle of every runtime.
func (w *Worker[T]) AtomicAt(b BlockID, fn func(Tx)) {
	start := time.Since(blockClockOrigin)
	st, c, tx := &w.stats, w.core, w.tx
	id, cm := c.ID, c.cm
	st.Starts++
	st.Tracer.SampleBlock(id, int32(b))
	c.Cfg.Watch.Poll()
	// Enter the escalation gate: publish the block, then look for a pending
	// escalation — the Dekker pair the escalator's drain rests on.
	c.curBlock.Store(int32(b))
	if c.gatePending.Load() != 0 {
		c.park(b)
	}
	cm.OnStart()
	ro := BlockReadOnly(b)
	aborts := 0
	for {
		c.reset()
		tx.Begin(aborts, ro)
		if Attempt(tx, fn) && tx.Commit() {
			break
		}
		tx.Rollback()
		aborts++
		st.Aborts++
		st.RecordAbort(b, c.Info.Cause, c.Info.Key, c.Info.Blame)
		st.Tracer.Emit(trace.EvAbort, c.Info.Cause, id, int32(b), c.Info.Key)
		st.Wasted += c.Loads + c.Stores
		c.res.OnAbort()
		if c.Info.Err != nil {
			// Terminal alloc exhaustion: the abort is accounted, Rollback
			// released the protocol's state and the reserver reclaimed the
			// attempt's allocations — leave the gate (handing back the token
			// without counting an escalated commit), reset the policy as at
			// a block end, and unwind the block instead of retrying
			// (exhaustion does not heal by optimism).
			c.curBlock.Store(outside)
			if c.irrevocable.Load() {
				c.release()
			}
			cm.OnCommit()
			c.Info.BailAlloc()
		}
		c.Cfg.Watch.Poll()
		switch {
		case c.irrevocable.Load():
			// Already alone: only an explicit Restart or an HTM capacity
			// retry aborts an irrevocable attempt; the next keeps the token.
		case c.Cfg.StarveAfter > 0 && aborts >= c.Cfg.StarveAfter:
			c.escalate(b)
		default:
			if c.gatePending.Load() != 0 {
				// Someone else is escalating: leave the block so their
				// drain completes, and rejoin before retrying.
				c.park(b)
			}
			// The policy applies its delay here. Runtimes whose conflicts
			// have no identifiable enemy (NOrec's value validation, the
			// commit-time flag kills of htm-lazy and hybrid-lazy) have no
			// arbitration point inside the attempt, so this hook is their
			// whole policy surface; the simulated HTMs default to "none" —
			// immediate restart, the undo-log replay being the only delay
			// (Section IV).
			cm.OnAbort(aborts)
		}
	}
	c.res.OnCommit()
	c.curBlock.Store(outside)
	if c.irrevocable.Load() {
		c.release()
		st.EscalatedCommits++
	}
	cm.OnCommit()
	c.Cfg.Watch.Bump(id)
	st.Commits++
	st.Tracer.Emit(trace.EvCommit, CauseUnknown, id, int32(b), 0)
	st.RecordBlock(b, uint64(aborts), c.Loads, c.Stores)
	st.Loads += c.Loads
	st.Stores += c.Stores
	st.LoadsHist.Add(int(c.Loads))
	st.StoresHist.Add(int(c.Stores))
	if r, wr, ok := tx.LineCounts(); ok {
		st.ReadLinesHist.Add(r)
		st.WriteLinesHist.Add(wr)
	}
	st.TxTimeNs += int64(time.Since(blockClockOrigin) - start)
}
