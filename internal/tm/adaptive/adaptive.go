// Package adaptive implements stm-adaptive, a meta-runtime that wraps two
// delegate STMs over the same arena and switches between them online. It
// automates the central STAMP finding — no single TM design wins across the
// workload mix, protocol choice is the dominant performance variable — by
// measuring each workload phase and picking the protocol instead of asking
// the user to.
//
// # Delegates
//
// The two delegates are constructed by name through the factory (injected
// as a Ctor to avoid the package cycle) from tm.Config.AdaptiveRead and
// tm.Config.AdaptiveWrite:
//
//   - the read delegate (default stm-norec-ro) is preferred in
//     read-dominated / low-contention phases: NOrec's barrier has no lock
//     table to probe, read-only commits are free, and value-based
//     validation rarely fires when the clock rarely moves;
//   - the write delegate (default stm-lazy, i.e. TL2) is preferred under
//     write-heavy commit pressure: per-stripe locks commit disjoint write
//     sets in parallel, where NOrec serializes every writeback through one
//     sequence lock and each commit forces every in-flight reader to
//     revalidate.
//
// Both delegates share the arena but own disjoint metadata (TL2's lock
// table and clock vs NOrec's sequence lock), so correctness only requires
// that the two protocols are never concurrently active — which the epoch
// gate below enforces.
//
// # Signals and policy
//
// Each worker samples its blocks' outcomes — failed attempts and
// read/write barrier counts, read as deltas off the delegates' own
// cumulative per-thread accounting — and deposits them into a global
// window once per flushEvery blocks, so the per-block fast path does no
// sampling at all. When a window fills (tm.Config.AdaptiveWindow committed
// blocks), one thread evaluates:
//
//	writeFrac = stores / (loads + stores)   // write-set share of barriers
//	abortRate = aborts / (aborts + commits) // contention proxy
//
// Write-heavy pressure (writeFrac above writeHeavyFrac, or an elevated
// abortRate while writes are present) selects the write delegate;
// read-dominated windows (writeFrac below readDomFrac and low abortRate)
// select the read delegate; anything between is a dead band that keeps the
// current protocol. Thread count is a static prior: below minWriteThreads
// the sequence lock cannot be a bottleneck, so the policy never leaves the
// read delegate. Hysteresis on top of the dead band: the desired protocol
// must win tm.Config.AdaptiveHysteresis consecutive windows before a
// handoff, and after a handoff the policy sleeps for cooldownWindows
// windows so residency is never shorter than a few windows.
//
// # Quiesce / handoff
//
// Protocol switches use an epoch gate built from one padded per-thread
// flag: a worker entering a block claims the current mode by storing
// mode+1 into its own flag and then re-checking mode (a Dekker-style
// store/load pair; Go's sync/atomic operations are sequentially
// consistent), and clears the flag when the block completes. A handoff
// first parks the mode at modeSwitching, which stops new blocks from
// claiming, then waits until every flag is clear — a full quiesce: every
// in-flight transaction has committed and no new one can start — and only
// then installs the new mode. No transaction ever straddles protocols, and
// the two delegates are never concurrently active; the flag-clear /
// mode-load atomics give the happens-before edge from every old-protocol
// transaction to every new-protocol one. The fast path costs two stores
// and two loads on the worker's own cache line plus one shared read-only
// mode load — cheaper than a reader-writer lock's shared-word RMWs, which
// matters on the tiny-transaction workloads (kmeans-sized blocks) this
// runtime must not tax. The handoff itself is performed by whichever
// worker thread evaluated the window — between its own blocks, with its
// own flag clear, so the quiesce cannot deadlock on itself.
//
// Per-block statistics need no extra plumbing: each delegate records every
// commit under its own runtime name, so the merged tm.Stats of a run show
// exactly how each atomic block's commits were split across protocols
// (BlockStats.Residency()).
package adaptive

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/stamp-go/stamp/internal/mem"
	"github.com/stamp-go/stamp/internal/thread"
	"github.com/stamp-go/stamp/internal/tm"
	"github.com/stamp-go/stamp/internal/tm/chaos"
)

// Ctor constructs a delegate runtime by registry name. The factory injects
// its own New so this package does not import it (factory imports adaptive
// to register stm-adaptive).
type Ctor func(name string, cfg tm.Config) (tm.System, error)

// Modes index the delegate pair; modeSwitching parks the runtime mid-
// handoff (no delegate claimable while the quiesce drains).
const (
	modeRead      int32 = 0  // read-optimized delegate active
	modeWrite     int32 = 1  // write-optimized delegate active
	modeSwitching int32 = -1 // handoff in progress, entries spin
)

// flushEvery batches a worker's sampled signals before they touch the
// shared window counters, keeping the sampling cost off the per-block fast
// path (4 shared atomic adds per flushEvery blocks instead of per block).
const flushEvery = 8

// Policy thresholds. writeFrac is the stores share of all barriers in a
// window, abortRate the failed-attempt share of all attempts.
const (
	// writeHeavyFrac: a window whose barrier mix is at least this much
	// stores counts as write-heavy commit pressure.
	writeHeavyFrac = 0.15
	// readDomFrac: a window with at most this much stores counts as
	// read-dominated. Between the two fractions is a dead band that keeps
	// the current protocol.
	readDomFrac = 0.05
	// abortHeavy: an abort rate at or above this marks contention the read
	// delegate handles badly (NOrec validation failures under commit
	// pressure) when writes are present at all.
	abortHeavy = 0.20
	// minWriteThreads: below this thread count the write delegate is never
	// selected — a single sequence lock cannot bottleneck one or two
	// threads, and NOrec's cheaper barriers win (the Synchrobench
	// low-thread-count observation).
	minWriteThreads = 4
	// cooldownWindows: windows skipped after a handoff, bounding how often
	// the gate can quiesce the team.
	cooldownWindows = 4
)

// System is the stm-adaptive meta-runtime: one tm.System facade over two
// delegate systems and the selection machinery.
type System struct {
	cfg  tm.Config
	dels [2]tm.System // [modeRead], [modeWrite]

	// mode is the active delegate index (or modeSwitching). Written only
	// under switchMu; claimed per block through the per-thread flag
	// protocol (see adaptiveThread.AtomicAt).
	mode atomic.Int32
	// switchMu serializes handoffs (policy-driven and forced).
	switchMu sync.Mutex

	switches atomic.Uint64 // completed handoffs

	// Sampling window accumulators (shared, reset by swap at evaluation).
	wCommits atomic.Uint64
	wAborts  atomic.Uint64
	wLoads   atomic.Uint64
	wStores  atomic.Uint64

	// ctl is the evaluator's state; TryLock keeps window evaluation off
	// every other thread's fast path.
	ctl struct {
		sync.Mutex
		pending  int32 // mode the recent windows argue for
		streak   int   // consecutive windows agreeing on pending
		cooldown int   // windows left to skip after a handoff
	}

	threads []*adaptiveThread

	// chaos is the meta-runtime's own injector for the handoff failpoint
	// (each delegate builds its own for its protocol-level sites).
	chaos *chaos.Injector
}

// New constructs the stm-adaptive runtime, building both delegates through
// mk from cfg.AdaptiveRead / cfg.AdaptiveWrite.
func New(cfg tm.Config, mk Ctor) (*System, error) {
	cfg = cfg.Defaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.AdaptiveRead == cfg.AdaptiveWrite {
		return nil, fmt.Errorf("adaptive: delegates must differ, both are %q", cfg.AdaptiveRead)
	}
	inj, err := chaos.New(cfg.Chaos, cfg.Threads)
	if err != nil {
		return nil, err
	}
	s := &System{cfg: cfg, chaos: inj}
	for i, name := range []string{cfg.AdaptiveRead, cfg.AdaptiveWrite} {
		d, err := mk(name, cfg)
		if err != nil {
			return nil, fmt.Errorf("adaptive: delegate %q: %w", name, err)
		}
		s.dels[i] = d
	}
	s.threads = make([]*adaptiveThread, cfg.Threads)
	for i := range s.threads {
		s.threads[i] = &adaptiveThread{
			id:  i,
			sys: s,
			del: [2]tm.Thread{s.dels[modeRead].Thread(i), s.dels[modeWrite].Thread(i)},
		}
	}
	return s, nil
}

// Name implements tm.System.
func (s *System) Name() string { return "stm-adaptive" }

// Arena implements tm.System.
func (s *System) Arena() *mem.Arena { return s.cfg.Arena }

// NThreads implements tm.System.
func (s *System) NThreads() int { return s.cfg.Threads }

// Thread implements tm.System.
func (s *System) Thread(id int) tm.Thread { return s.threads[id] }

// Stats implements tm.System: the merge of both delegates' per-thread
// records (each delegate attributes its commits to itself in the per-block
// residency, so the merged view shows the protocol split per call site).
func (s *System) Stats() tm.Stats {
	per := make([]*tm.ThreadStats, 0, 2*s.cfg.Threads)
	for _, d := range s.dels {
		for i := 0; i < s.cfg.Threads; i++ {
			per = append(per, d.Thread(i).Stats())
		}
	}
	st := tm.Aggregate(per)
	st.Threads = s.cfg.Threads
	return st
}

// TraceEvents exposes both delegates' sampled tracer events (the tm layer's
// optional event source). The per-thread Stats facade returns fresh merged
// records that carry no ring, so the rings are read straight off the
// delegates' own worker records instead; tm.TraceEvents time-sorts the
// concatenation.
func (s *System) TraceEvents() []tm.TraceEvent {
	var evs []tm.TraceEvent
	for _, d := range s.dels {
		for i := 0; i < s.cfg.Threads; i++ {
			evs = append(evs, d.Thread(i).Stats().Tracer.Snapshot()...)
		}
	}
	return evs
}

// Current returns the registry name of the active delegate (waiting out an
// in-progress handoff, so it never reports the transient switching state).
func (s *System) Current() string {
	w := thread.Waiter{Parties: s.cfg.Threads}
	for {
		if m := s.mode.Load(); m >= 0 {
			return s.dels[m].Name()
		}
		w.Pause()
	}
}

// Delegates returns the (read, write) delegate names.
func (s *System) Delegates() (read, write string) {
	return s.dels[modeRead].Name(), s.dels[modeWrite].Name()
}

// Switches returns how many protocol handoffs have completed.
func (s *System) Switches() uint64 { return s.switches.Load() }

// ForceMode performs an immediate quiesce-and-handoff to the named
// delegate, bypassing the sampling policy (test and experiment hook; the
// policy may switch back at the next window). It must not be called from
// inside an atomic block.
func (s *System) ForceMode(name string) error {
	for m := int32(0); m < 2; m++ {
		if s.dels[m].Name() == name {
			s.switchTo(m)
			return nil
		}
	}
	read, write := s.Delegates()
	return fmt.Errorf("adaptive: %q is not a delegate (have %s, %s)", name, read, write)
}

// switchTo performs the epoch handoff to mode m: park the mode at
// modeSwitching so no new block can claim a delegate, wait until every
// worker's flag is clear (all in-flight blocks committed — the quiesce),
// then install m. A no-op without a handoff if m is already active.
func (s *System) switchTo(m int32) {
	s.switchMu.Lock()
	defer s.switchMu.Unlock()
	if s.mode.Load() == m {
		return
	}
	s.mode.Store(modeSwitching)
	for _, t := range s.threads {
		w := thread.Waiter{Parties: s.cfg.Threads}
		for t.active.Load() != 0 {
			s.cfg.Watch.Poll()
			w.Pause()
		}
	}
	// Failpoint: stall the handoff while the whole team is quiesced — the
	// widest window the meta-runtime can hold everyone parked.
	s.chaos.Stall(chaos.AdaptiveHandoff, 0)
	// The outgoing delegate's tenure may have invalidated state the
	// incoming one caches off the shared arena (stm-mv's version rings, to
	// which the other delegate's commits never append). Notify the
	// delegate being activated while the team is quiesced, so no
	// transaction can observe the stale state.
	if h, ok := s.dels[m].(handoffAware); ok {
		h.OnHandoff()
	}
	s.mode.Store(m)
	s.switches.Add(1)
}

// handoffAware is the optional delegate interface for runtimes that cache
// arena-derived state another delegate's tenure can silently invalidate.
// OnHandoff is called on the delegate about to be activated, after the
// quiesce completes and before any of its transactions can start.
type handoffAware interface {
	OnHandoff()
}

// flush deposits one worker's batched signals into the shared window and,
// when the batch crossed a window boundary, evaluates the selection
// policy. Called between blocks — never with the caller's epoch flag set —
// so the evaluator's switchTo cannot deadlock on its own thread.
func (s *System) flush(commits, aborts, loads, stores uint64) {
	if aborts != 0 {
		s.wAborts.Add(aborts)
	}
	s.wLoads.Add(loads)
	s.wStores.Add(stores)
	n := s.wCommits.Add(commits)
	w := uint64(s.cfg.AdaptiveWindow)
	if n/w == (n-commits)/w {
		return
	}
	s.evaluate()
}

// evaluate snapshots the window, applies the policy with hysteresis, and
// performs the handoff when the signals have persisted. TryLock: if some
// other thread is mid-evaluation the window is simply dropped — sampling,
// not accounting.
func (s *System) evaluate() {
	if !s.ctl.TryLock() {
		return
	}
	defer s.ctl.Unlock()
	commits := s.wCommits.Swap(0)
	aborts := s.wAborts.Swap(0)
	loads := s.wLoads.Swap(0)
	stores := s.wStores.Swap(0)
	if s.ctl.cooldown > 0 {
		s.ctl.cooldown--
		return
	}
	cur := s.mode.Load()
	desired := desire(cur, s.cfg.Threads, commits, aborts, loads, stores)
	if desired == cur {
		s.ctl.streak = 0
		return
	}
	if s.ctl.pending != desired {
		s.ctl.pending, s.ctl.streak = desired, 1
	} else {
		s.ctl.streak++
	}
	if s.ctl.streak < s.cfg.AdaptiveHysteresis {
		return
	}
	s.ctl.streak = 0
	s.ctl.cooldown = cooldownWindows
	s.switchTo(desired)
}

// desire is the pure selection policy: which delegate the window's signals
// argue for, given the current mode (the dead band between readDomFrac and
// writeHeavyFrac resolves to cur).
func desire(cur int32, threads int, commits, aborts, loads, stores uint64) int32 {
	if threads < minWriteThreads {
		return modeRead
	}
	barriers := loads + stores
	if barriers == 0 || aborts+commits == 0 {
		return cur
	}
	writeFrac := float64(stores) / float64(barriers)
	abortRate := float64(aborts) / float64(aborts+commits)
	switch {
	case writeFrac >= writeHeavyFrac,
		abortRate >= abortHeavy && writeFrac > readDomFrac:
		return modeWrite
	case writeFrac <= readDomFrac && abortRate < abortHeavy:
		return modeRead
	default:
		return cur
	}
}

// adaptiveThread is the per-worker facade over the two delegate threads.
type adaptiveThread struct {
	id  int
	sys *System
	del [2]tm.Thread

	// active is the worker's epoch flag: 0 while idle, mode+1 while a
	// block runs on that delegate. Stored by the owner, read by switchTo.
	active atomic.Int32

	// Batched window sampling, owner-thread only (see flushEvery):
	// bCommits counts blocks since the last flush; last* remember the
	// delegates' cumulative counters at that flush, so the flush reads one
	// delta per batch instead of one per block.
	bCommits                          uint64
	lastAborts, lastLoads, lastStores uint64

	_ [64]byte // pad flags apart (switchTo scans them cross-thread)
}

// ID implements tm.Thread.
func (t *adaptiveThread) ID() int { return t.id }

// Stats implements tm.Thread: a merged snapshot of this worker's records in
// both delegates. Unlike the static runtimes' accessor it returns a fresh
// record per call, not a live one.
func (t *adaptiveThread) Stats() *tm.ThreadStats {
	merged := &tm.ThreadStats{}
	merged.Merge(t.del[modeRead].Stats())
	merged.Merge(t.del[modeWrite].Stats())
	return merged
}

// Atomic implements tm.Thread.
func (t *adaptiveThread) Atomic(fn func(tm.Tx)) { t.AtomicAt(tm.NoBlock, fn) }

// AtomicAt implements tm.Thread: claim the active delegate through the
// epoch-flag protocol, run the block on it, then sample its outcome from
// the delegate's own accounting (delta of the per-thread record, which
// only this worker writes).
func (t *adaptiveThread) AtomicAt(b tm.BlockID, fn func(tm.Tx)) {
	s := t.sys
	var m int32
	w := thread.Waiter{Parties: s.cfg.Threads}
	for {
		m = s.mode.Load()
		if m < 0 {
			// Handoff in progress: wait for the new mode to install.
			s.cfg.Watch.Poll()
			w.Pause()
			continue
		}
		// Claim m, then re-check it. The store/load pair pairs with
		// switchTo's mode store / flag scan (both sequentially consistent):
		// either we see the parked mode and retreat, or switchTo sees our
		// claim and waits the block out.
		t.active.Store(m + 1)
		if s.mode.Load() == m {
			break
		}
		t.active.Store(0)
	}
	t.runOn(t.del[m], b, fn)

	t.bCommits++
	if t.bCommits >= flushEvery {
		t.flushBatch()
	}
}

// runOn executes the block on the claimed delegate. The epoch flag is
// cleared on a defer so a panic escaping the block (an application bug
// re-raised by tm.Attempt) cannot leave the claim set and wedge every
// later handoff into a whole-team hang — the flag must be clear by the
// time the caller flushes the window, because a window evaluation may
// perform a handoff that waits on this very flag.
func (t *adaptiveThread) runOn(d tm.Thread, b tm.BlockID, fn func(tm.Tx)) {
	defer t.active.Store(0)
	d.AtomicAt(b, fn)
}

// flushBatch deposits the last flushEvery blocks' signals into the window.
// The delta is read off the delegates' cumulative per-thread counters
// (which only this worker advances), so the per-block fast path does no
// sampling at all — one pair of counter reads per batch. The window does
// not care which delegate generated the barriers: it samples the workload's
// shape, not the protocol's.
func (t *adaptiveThread) flushBatch() {
	var aborts, loads, stores uint64
	for _, d := range t.del {
		st := d.Stats()
		aborts += st.Aborts
		loads += st.Loads
		stores += st.Stores
	}
	t.sys.flush(t.bCommits, aborts-t.lastAborts, loads-t.lastLoads, stores-t.lastStores)
	t.lastAborts, t.lastLoads, t.lastStores = aborts, loads, stores
	t.bCommits = 0
}
