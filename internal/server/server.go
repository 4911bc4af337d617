package server

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"github.com/stamp-go/stamp/internal/apps/vacation"
	"github.com/stamp-go/stamp/internal/harness"
	"github.com/stamp-go/stamp/internal/mem"
	"github.com/stamp-go/stamp/internal/tm"
	"github.com/stamp-go/stamp/internal/tm/chaos"
	"github.com/stamp-go/stamp/internal/tm/factory"
)

// OpKind selects which vacation operation a Request runs.
type OpKind int

const (
	// OpReserve books the best-priced available item of each type among
	// Request.Items for Request.Customer (vacation's make-reservation).
	OpReserve OpKind = iota
	// OpCancel releases all of Request.Customer's bookings and removes the
	// customer (vacation's delete-customer).
	OpCancel
	// OpUpdate applies Request.Updates to the inventory (vacation's
	// update-tables).
	OpUpdate
	// OpQuery sums the free inventory of Request.Items — the read-only
	// operation, registered through tm.NewROBlock so stm-mv serves it from
	// begin-timestamp snapshots with zero aborts.
	OpQuery
	numOps
)

// opProbe is the test hook: it runs Request.probe as the atomic block, so
// tests can wedge or instrument a worker deterministically. Not reachable
// through the public surface.
const opProbe OpKind = 255

func (k OpKind) String() string {
	switch k {
	case OpReserve:
		return "reserve"
	case OpCancel:
		return "cancel"
	case OpUpdate:
		return "update"
	case OpQuery:
		return "query"
	case opProbe:
		return "probe"
	}
	return fmt.Sprintf("op(%d)", int(k))
}

// Atomic-block call sites of the served operations, registered once so
// tm.Stats.Blocks attributes per-operation commit/abort/protocol rows.
var (
	blkReserve = tm.NewBlock("stampd/reserve")
	blkCancel  = tm.NewBlock("stampd/cancel")
	blkUpdate  = tm.NewBlock("stampd/update")
	blkQuery   = tm.NewROBlock("stampd/query")
	blkProbe   = tm.NewBlock("stampd/probe")
)

// Errors of the admission path. ErrStalled (the watchdog verdict) is
// harness.ErrStalled so one sentinel spans batch and serving modes.
var (
	// ErrQueueFull reports an admission rejection: the bounded queue was at
	// capacity when the request arrived. Open-loop clients count it and move
	// on; closed-loop clients may retry with backoff.
	ErrQueueFull = errors.New("server: admission queue full")
	// ErrClosed reports a Submit after Close.
	ErrClosed = errors.New("server: closed")
	// ErrStalled re-exports the progress-watchdog sentinel: once the pool
	// is halted every pending and future request fails wrapping it.
	ErrStalled = harness.ErrStalled
	// ErrDeadline reports that a request exceeded Options.RequestDeadline
	// (measured from admission, so queue wait and epoch-swap hold time
	// count). The request was abandoned without (further) execution.
	ErrDeadline = errors.New("server: request deadline exceeded")
	// ErrRetriesExhausted reports that a request hit arena exhaustion on
	// every attempt of its Options.RequestRetries budget, each retry
	// following an epoch swap. Errors wrapping it also wrap the final
	// attempt's mem.ErrArenaFull.
	ErrRetriesExhausted = errors.New("server: retry budget exhausted")
	// ErrArenaFull re-exports the arena capacity sentinel so callers can
	// match overload responses without importing internal/mem.
	ErrArenaFull = mem.ErrArenaFull
)

// Options configures a Server. The zero value serves the default store on
// stm-mv; Validate reports every invalid field at once.
type Options struct {
	// System names the TM runtime the pool runs on ("" = "stm-mv", whose
	// multi-version rings serve OpQuery snapshots abort-free).
	System string
	// Workers is the goroutine pool size, each owning one tm.Thread slot
	// (0 = 4; max 64, the runtime's reader-mask width).
	Workers int
	// Queue bounds the admission queue (0 = 4×Workers). Submit rejects
	// with ErrQueueFull when it is at capacity — load shedding, not
	// buffering, is the overload response.
	Queue int
	// Records sizes the store: rows per reservation table (0 = 16384, the
	// paper's vacation-high -r).
	Records int
	// OpBudget sizes the arena's operation slack: the number of requests
	// the server is provisioned to absorb over its lifetime (0 = 1<<18).
	// Transactional frees and aborted attempts' allocations recycle through
	// the per-thread free lists, and an epoch swap compacts the store into
	// a fresh arena when the high-water mark still climbs (see SwapAt), so
	// the budget sets how often the server swaps, not how long it lives;
	// New fails fast if the arena cannot hold the store plus this slack.
	OpBudget int
	// ArenaWords overrides the derived arena size entirely (0 = derive
	// from Records and OpBudget).
	ArenaWords int

	// SwapAt is the arena high-water fraction that triggers a proactive
	// epoch swap: once Used/Cap crosses it after a served request, the pool
	// quiesces, the live store is compacted into a fresh arena, and serving
	// resumes (0 = 0.85; must be < 1). Reactive swaps — a request actually
	// hitting arena exhaustion — happen regardless.
	SwapAt float64
	// RequestDeadline bounds each request's admission-to-completion time:
	// a request still unserved past it (queued behind a stalled swap, or
	// burning its retry budget) fails with an ErrDeadline-wrapped error
	// instead of waiting forever (0 = no deadline).
	RequestDeadline time.Duration
	// RequestRetries is how many times a request that hits arena
	// exhaustion is retried, each retry behind an epoch swap, before
	// failing with ErrRetriesExhausted (0 = 3).
	RequestRetries int
	// NoRecycle disables the runtime's transactional free lists (every
	// tx.Free becomes a leak, as in the original suite's tmalloc) — the
	// ablation knob of tm.Config.NoRecycle.
	NoRecycle bool

	// CM, Clock, Chaos, MVVersions, AdaptiveRead, AdaptiveWrite mirror the
	// harness.Options knobs of the same names.
	CM            string
	Clock         string
	Chaos         string
	MVVersions    int
	AdaptiveRead  string
	AdaptiveWrite string

	// ProgressTimeout arms the progress watchdog: if the pool has requests
	// in flight but the global commit count stays flat across a full
	// window, the pool is halted, diagnostics are dumped to Diagnostics,
	// and every pending and future request fails with an
	// ErrStalled-wrapped error instead of the listener hanging (0 = off).
	ProgressTimeout time.Duration
	// Diagnostics receives the stall post-mortem (nil = os.Stderr).
	Diagnostics io.Writer

	// Seed seeds store population (and the runtime's backoff jitter).
	Seed uint64
}

func (o Options) withDefaults() Options {
	if o.System == "" {
		o.System = "stm-mv"
	}
	if o.Workers == 0 {
		o.Workers = 4
	}
	if o.Queue == 0 {
		o.Queue = 4 * o.Workers
	}
	if o.Records == 0 {
		o.Records = 16384
	}
	if o.OpBudget == 0 {
		o.OpBudget = 1 << 18
	}
	if o.SwapAt == 0 {
		o.SwapAt = 0.85
	}
	if o.RequestRetries == 0 {
		o.RequestRetries = 3
	}
	if o.Diagnostics == nil {
		o.Diagnostics = os.Stderr
	}
	return o
}

// opSlackWords is the arena-churn budget per served operation: a reserve
// session may insert a customer (rb node + list header + list node), and
// chunk tails and size-class mismatches keep recycling short of perfect.
const opSlackWords = 40

// Validate reports every invalid field at once (errors.Join), in the same
// all-errors-at-once style as harness.Options.Validate.
func (o Options) Validate() error {
	var errs []error
	bad := func(format string, args ...any) { errs = append(errs, fmt.Errorf(format, args...)) }
	if o.Workers < 0 || o.Workers > 64 {
		bad("workers must be in [0, 64] (0 = 4), got %d", o.Workers)
	}
	if o.Queue < 0 {
		bad("queue must be >= 0 (0 = 4×workers), got %d", o.Queue)
	}
	if o.Records < 0 {
		bad("records must be >= 0 (0 = 16384), got %d", o.Records)
	}
	if o.OpBudget < 0 {
		bad("op budget must be >= 0 (0 = 1<<18), got %d", o.OpBudget)
	}
	if o.ArenaWords < 0 {
		bad("arena words must be >= 0 (0 = derived), got %d", o.ArenaWords)
	}
	if o.SwapAt < 0 || o.SwapAt >= 1 {
		bad("swap threshold must be in [0, 1) (0 = 0.85), got %g", o.SwapAt)
	}
	if o.RequestDeadline < 0 {
		bad("request deadline must be >= 0 (0 = none), got %v", o.RequestDeadline)
	}
	if o.RequestRetries < 0 {
		bad("request retries must be >= 0 (0 = 3), got %d", o.RequestRetries)
	}
	if o.System == "seq" {
		bad("seq has no concurrency control and cannot serve a worker pool")
	}
	// Delegate the per-knob registry checks to the harness validator so the
	// two Options surfaces cannot drift.
	ho := harness.Options{
		System: o.System, CM: o.CM, Clock: o.Clock, Chaos: o.Chaos,
		MVVersions:   o.MVVersions,
		AdaptiveRead: o.AdaptiveRead, AdaptiveWrite: o.AdaptiveWrite,
		ProgressTimeout: o.ProgressTimeout,
	}
	if err := ho.Validate(); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// Request is one operation submission.
type Request struct {
	Op       OpKind
	Customer int               // OpReserve, OpCancel
	Items    []vacation.Item   // OpReserve, OpQuery
	Updates  []vacation.Update // OpUpdate

	arrive time.Time
	probe  func(tm.Tx) // opProbe body (tests only)
	done   chan Response
}

// Response is one operation's outcome. Latency is measured from admission
// (Submit) to completion, so it includes queue wait — the client-visible
// number, not just service time.
type Response struct {
	Op      OpKind // echoes the request's op (shared-channel consumers key on it)
	Value   uint64 // OpQuery: total free inventory seen
	Torn    uint64 // OpQuery: snapshot-consistency violations observed (must be 0)
	Latency time.Duration
	Err     error
}

// Gauges is the server's live operational readout. Every field is
// maintained with atomics, so Snapshot is safe (and exact per counter)
// while requests are in flight — unlike TMStats, which wants quiescence.
type Gauges struct {
	Served     uint64 `json:"served"`
	Rejected   uint64 `json:"rejected"`
	Failed     uint64 `json:"failed"`
	Inflight   int64  `json:"inflight"`
	QueueDepth int    `json:"queue_depth"`
	QueueCap   int    `json:"queue_cap"`
	QueueHW    int64  `json:"queue_high_water"`
	Workers    int    `json:"workers"`
	ArenaUsed  int    `json:"arena_used_words"`
	ArenaCap   int    `json:"arena_cap_words"`

	// Epoch counts arena generations (0 = the arena New built); Swaps is
	// the number of completed epoch swaps (== Epoch). SwapPauseNs is the
	// cumulative quiesce-to-resume pause across all swaps and
	// LastSwapPauseNs the most recent one — the serving-mode availability
	// cost of arena compaction.
	Epoch           uint64 `json:"epoch"`
	Swaps           uint64 `json:"swaps"`
	SwapPauseNs     int64  `json:"swap_pause_ns_total"`
	LastSwapPauseNs int64  `json:"last_swap_pause_ns"`

	Latency LatSummary            `json:"latency"`
	PerOp   map[string]LatSummary `json:"per_op"`
}

// epochState is one arena generation: the arena, the TM system running on
// it, and the store rooted in it. The three swap together atomically — a
// worker serving a request resolves all of them from one pointer load under
// the swap gate's read lock.
type epochState struct {
	epoch uint64
	arena *mem.Arena
	sys   tm.System
	store vacation.Store
}

// Server is a long-lived worker pool serving vacation operations over a
// sequence of arena epochs: when the current arena's high-water crosses
// Options.SwapAt (or a request actually hits exhaustion), the pool
// quiesces, the live store is compacted into a fresh arena, and serving
// resumes on the new epoch.
type Server struct {
	opt        Options
	arenaWords int // per-epoch arena size
	watch      *tm.Watch
	chaos      *chaos.Injector // serving-mode failpoints (swap-stall)

	// cur is the live epoch. Workers read it under swapGate.RLock; trySwap
	// replaces it under swapGate.Lock (the quiesce barrier). swapMu
	// single-flights swaps and guards retired, the retired epochs'
	// transactional statistics.
	cur      atomic.Pointer[epochState]
	swapGate sync.RWMutex
	swapMu   sync.Mutex
	retired  []tm.Stats

	mu     sync.RWMutex // guards queue close vs Submit sends
	queue  chan *Request
	closed bool

	wg          sync.WaitGroup
	stopMonitor chan struct{}
	monitorDone chan struct{}

	fatal    atomic.Pointer[error]
	inflight atomic.Int64
	served   atomic.Uint64
	rejected atomic.Uint64
	failed   atomic.Uint64
	queueHW  atomic.Int64

	swaps           atomic.Uint64
	swapPauseNs     atomic.Int64
	lastSwapPauseNs atomic.Int64

	latAll LatHist
	lat    [numOps]LatHist
}

// New builds the store in a fresh long-lived arena, constructs the TM
// system with one thread slot per worker, and starts the pool.
func New(opt Options) (*Server, error) {
	if err := opt.Validate(); err != nil {
		return nil, fmt.Errorf("server: invalid options: %w", err)
	}
	opt = opt.withDefaults()
	words := opt.ArenaWords
	if words == 0 {
		words = vacation.StoreWords(opt.Records) + opt.OpBudget*opSlackWords + 1<<16
	}
	s := &Server{
		opt:         opt,
		arenaWords:  words,
		queue:       make(chan *Request, opt.Queue),
		stopMonitor: make(chan struct{}),
		monitorDone: make(chan struct{}),
	}
	// The server's own injector drives the serving-layer failpoints
	// (swap-stall); the runtime sites are armed independently inside each
	// epoch's system from the same spec.
	inj, err := chaos.New(opt.Chaos, 1)
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	s.chaos = inj
	if opt.ProgressTimeout > 0 {
		s.watch = tm.NewWatch(opt.Workers)
	}
	arena := mem.NewArena(words)
	store := vacation.NewStore(mem.Direct{A: arena}, opt.Records, opt.Seed)
	sys, err := s.newSystem(arena)
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	s.cur.Store(&epochState{arena: arena, sys: sys, store: store})
	s.wg.Add(opt.Workers)
	for tid := 0; tid < opt.Workers; tid++ {
		go s.worker(tid)
	}
	if s.watch != nil {
		go s.monitor()
	} else {
		close(s.monitorDone)
	}
	return s, nil
}

// newSystem constructs one epoch's TM system over arena, sharing the
// server-lifetime watch so commit progress accumulates across swaps.
func (s *Server) newSystem(arena *mem.Arena) (tm.System, error) {
	return factory.New(s.opt.System, tm.Config{
		Arena:              arena,
		Threads:            s.opt.Workers,
		EnableEarlyRelease: true,
		CM:                 s.opt.CM,
		Clock:              s.opt.Clock,
		Chaos:              s.opt.Chaos,
		MVVersions:         s.opt.MVVersions,
		AdaptiveRead:       s.opt.AdaptiveRead,
		AdaptiveWrite:      s.opt.AdaptiveWrite,
		NoRecycle:          s.opt.NoRecycle,
		Watch:              s.watch,
		Seed:               s.opt.Seed,
	})
}

// Err returns the server's fatal error: non-nil once the pool has been
// halted by the watchdog or a worker hit an unrecoverable panic. Every
// Submit after that fails fast with it.
func (s *Server) Err() error {
	if p := s.fatal.Load(); p != nil {
		return *p
	}
	return nil
}

func (s *Server) fail(err error) { s.fatal.CompareAndSwap(nil, &err) }

// Submit enqueues a request without blocking: ErrQueueFull when the
// admission queue is at capacity, ErrClosed after Close, the fatal error
// once the pool is halted. On success the response is delivered on
// req.done (if non-nil) when a worker completes the operation.
func (s *Server) Submit(req *Request) error {
	if err := s.Err(); err != nil {
		return err
	}
	req.arrive = time.Now()
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return ErrClosed
	}
	select {
	case s.queue <- req:
		if d := int64(len(s.queue)); d > s.queueHW.Load() {
			s.queueHW.Store(d) // racy max: a gauge, not an invariant
		}
		return nil
	default:
		s.rejected.Add(1)
		return fmt.Errorf("%w (capacity %d)", ErrQueueFull, cap(s.queue))
	}
}

// Do submits req and waits for its response (closed-loop convenience).
func (s *Server) Do(req *Request) Response {
	req.done = make(chan Response, 1)
	if err := s.Submit(req); err != nil {
		return Response{Err: err}
	}
	return <-req.done
}

// worker owns tm.Thread slot tid (of every epoch's system) for the server's
// lifetime and drains the admission queue into named atomic blocks.
func (s *Server) worker(tid int) {
	defer s.wg.Done()
	for req := range s.queue {
		var resp Response
		if err := s.Err(); err != nil {
			// Halted pool: drain the queue with fast errors, never
			// touching the TM runtime again (a halted or panicked
			// protocol may hold locks).
			resp.Err = err
		} else {
			s.inflight.Add(1)
			resp = s.execute(tid, req)
			s.inflight.Add(-1)
		}
		resp.Op = req.Op
		resp.Latency = time.Since(req.arrive)
		if resp.Err == nil {
			s.served.Add(1)
			s.latAll.Add(resp.Latency)
			if req.Op >= 0 && req.Op < numOps {
				s.lat[req.Op].Add(resp.Latency)
			}
		} else {
			s.failed.Add(1)
		}
		if req.done != nil {
			req.done <- resp
		}
	}
}

// execute runs one request to completion across epoch swaps: each attempt
// serves on the current epoch under the swap gate's read lock; an attempt
// that hits arena exhaustion triggers a swap and retries on the fresh
// epoch, up to the retry budget and the request deadline. A request that
// arrives while a swap holds the gate waits at admission — and fails with
// ErrDeadline instead of serving if the wait consumed its deadline.
func (s *Server) execute(tid int, req *Request) Response {
	var deadline time.Time
	if s.opt.RequestDeadline > 0 {
		deadline = req.arrive.Add(s.opt.RequestDeadline)
	}
	expired := func() bool { return !deadline.IsZero() && time.Now().After(deadline) }
	for attempt := 0; ; attempt++ {
		if expired() {
			return Response{Err: fmt.Errorf("%w (%v since admission)",
				ErrDeadline, time.Since(req.arrive).Round(time.Millisecond))}
		}
		s.swapGate.RLock()
		if expired() {
			// The wait for an in-progress swap consumed the deadline.
			s.swapGate.RUnlock()
			return Response{Err: fmt.Errorf("%w (%v since admission, held at epoch swap)",
				ErrDeadline, time.Since(req.arrive).Round(time.Millisecond))}
		}
		ep := s.cur.Load()
		resp := s.serve(ep, tid, req)
		s.swapGate.RUnlock()
		if resp.Err == nil || !errors.Is(resp.Err, mem.ErrArenaFull) {
			if resp.Err == nil && float64(ep.arena.Used()) >= s.opt.SwapAt*float64(ep.arena.Cap()) {
				s.trySwap(ep.epoch) // proactive: high-water crossed the threshold
			}
			return resp
		}
		if err := s.Err(); err != nil {
			return Response{Err: err}
		}
		if attempt >= s.opt.RequestRetries {
			return Response{Err: fmt.Errorf("%w (%d attempts): %w",
				ErrRetriesExhausted, attempt+1, resp.Err)}
		}
		s.trySwap(ep.epoch) // reactive: this request could not be placed
	}
}

// serve executes one request as one named atomic block on epoch ep,
// converting watchdog halts (and any other panic out of the runtime) into
// errors on the response instead of killing the worker. Arena exhaustion
// (tm.AllocFailure) is a per-request, recoverable outcome — execute retries
// it behind an epoch swap — not a pool-fatal one.
func (s *Server) serve(ep *epochState, tid int, req *Request) (resp Response) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if hs, ok := r.(tm.HaltSignal); ok {
			err := fmt.Errorf("%w: %s", ErrStalled, hs.Reason)
			s.fail(err)
			resp.Err = err
			return
		}
		if af, ok := r.(tm.AllocFailure); ok {
			resp.Err = fmt.Errorf("server: %s: %w", req.Op, af.Err)
			return
		}
		err := fmt.Errorf("server: %s worker panicked: %v", req.Op, r)
		s.fail(err)
		resp.Err = err
	}()
	th := ep.sys.Thread(tid)
	switch req.Op {
	case OpReserve:
		th.AtomicAt(blkReserve, func(tx tm.Tx) {
			ep.store.MakeReservation(tx, req.Customer, req.Items)
		})
	case OpCancel:
		th.AtomicAt(blkCancel, func(tx tm.Tx) {
			ep.store.DeleteCustomer(tx, req.Customer)
		})
	case OpUpdate:
		th.AtomicAt(blkUpdate, func(tx tm.Tx) {
			ep.store.UpdateTables(tx, req.Updates)
		})
	case OpQuery:
		th.AtomicAt(blkQuery, func(tx tm.Tx) {
			free, torn := ep.store.QueryFree(tx, req.Items)
			resp.Value, resp.Torn = free, uint64(torn)
		})
	case opProbe:
		th.AtomicAt(blkProbe, req.probe)
	default:
		resp.Err = fmt.Errorf("server: unknown op %d", int(req.Op))
	}
	return resp
}

// trySwap retires the epoch numbered fromEpoch: it quiesces the worker pool
// (write-locking the swap gate drains every in-flight serve), compacts the
// live store into a fresh arena, installs a new system, and resumes.
// Swaps are single-flight — concurrent triggers for the same epoch collapse
// into one, and a caller whose epoch has already been retired returns
// immediately (its request simply retries on the fresh one).
func (s *Server) trySwap(fromEpoch uint64) {
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	old := s.cur.Load()
	if old.epoch != fromEpoch || s.Err() != nil {
		return
	}
	start := time.Now()
	s.swapGate.Lock()
	// Failpoint: wedge between worker-pool quiesce and arena install — the
	// window where every request is held at admission.
	s.chaos.Stall(chaos.SwapStall, 0)
	arena := mem.NewArena(s.arenaWords)
	store := old.store.CompactInto(mem.Direct{A: old.arena}, mem.Direct{A: arena})
	sys, err := s.newSystem(arena)
	if err != nil {
		// Unreachable in practice: the same options built the old epoch.
		s.swapGate.Unlock()
		s.fail(fmt.Errorf("server: epoch swap: %w", err))
		return
	}
	// The pool is quiesced, so the retiring system's per-thread counters
	// are exact; bank them for TMStats before dropping the epoch (and its
	// arena) to the collector.
	s.retired = append(s.retired, old.sys.Stats())
	s.cur.Store(&epochState{epoch: old.epoch + 1, arena: arena, sys: sys, store: store})
	s.swapGate.Unlock()
	pause := time.Since(start).Nanoseconds()
	s.swaps.Add(1)
	s.swapPauseNs.Add(pause)
	s.lastSwapPauseNs.Store(pause)
}

// monitor is the serving-mode progress watchdog: unlike the batch
// harness's (which expects the run to finish), an idle server legitimately
// commits nothing, so a stall verdict additionally requires requests in
// flight at both edges of a flat-commit window.
func (s *Server) monitor() {
	defer close(s.monitorDone)
	window := s.opt.ProgressTimeout
	ticker := time.NewTicker(window)
	defer ticker.Stop()
	lastCommits := s.watch.Commits()
	lastBusy := false
	for {
		select {
		case <-s.stopMonitor:
			return
		case <-ticker.C:
			commits := s.watch.Commits()
			busy := s.inflight.Load() > 0
			if commits != lastCommits || !busy || !lastBusy {
				lastCommits, lastBusy = commits, busy
				continue
			}
			reason := fmt.Sprintf("no commit progress for %v with requests in flight (commits stuck at %d)",
				window, commits)
			err := fmt.Errorf("%w: %s", ErrStalled, reason)
			s.fail(err)
			s.watch.Halt(reason)
			// Grace period: workers observe the halt at their next poll and
			// unwind; if every in-flight request drains we can read exact
			// statistics, otherwise dump partial counters only.
			grace := window
			if grace < time.Second {
				grace = time.Second
			}
			deadline := time.Now().Add(grace)
			quiesced := false
			for time.Now().Before(deadline) {
				if s.inflight.Load() == 0 {
					quiesced = true
					break
				}
				time.Sleep(5 * time.Millisecond)
			}
			s.dumpStall(reason, quiesced)
			return
		}
	}
}

// dumpStall writes the serving-mode post-mortem: pool gauges plus (when the
// pool quiesced) the abort-cause table and hottest conflicts.
func (s *Server) dumpStall(reason string, quiesced bool) {
	out := s.opt.Diagnostics
	fmt.Fprintf(out, "server: progress watchdog: %s\n", reason)
	fmt.Fprintf(out, "server: system=%s workers=%d epoch=%d served=%d rejected=%d inflight=%d queued=%d/%d\n",
		s.System(), s.opt.Workers, s.cur.Load().epoch, s.served.Load(), s.rejected.Load(),
		s.inflight.Load(), len(s.queue), cap(s.queue))
	if !quiesced {
		fmt.Fprintf(out, "server: pool did not quiesce within the grace period; partial diagnostics only\n")
		return
	}
	st := s.TMStats()
	fmt.Fprintf(out, "  starts=%d commits=%d aborts=%d escalations=%d cm-waits=%d\n",
		st.Total.Starts, st.Total.Commits, st.Total.Aborts, st.Total.Escalations, st.Total.CMWaits)
	names := tm.CauseNames()
	for c, n := range st.AbortCauses() {
		if n != 0 {
			fmt.Fprintf(out, "  cause %-24s %d\n", names[c], n)
		}
	}
	conflicts := st.TopConflicts()
	if len(conflicts) > 8 {
		conflicts = conflicts[:8]
	}
	for _, row := range conflicts {
		fmt.Fprintf(out, "  conflict %-16s aborts=%d\n", row.Key.String(), row.Count)
	}
}

// Snapshot returns the live gauges: admission counters, queue depth and
// high-water, arena usage, and latency percentiles overall and per op.
func (s *Server) Snapshot() Gauges {
	ep := s.cur.Load()
	g := Gauges{
		Served:          s.served.Load(),
		Rejected:        s.rejected.Load(),
		Failed:          s.failed.Load(),
		Inflight:        s.inflight.Load(),
		QueueDepth:      len(s.queue),
		QueueCap:        cap(s.queue),
		QueueHW:         s.queueHW.Load(),
		Workers:         s.opt.Workers,
		ArenaUsed:       ep.arena.Used(),
		ArenaCap:        ep.arena.Cap(),
		Epoch:           ep.epoch,
		Swaps:           s.swaps.Load(),
		SwapPauseNs:     s.swapPauseNs.Load(),
		LastSwapPauseNs: s.lastSwapPauseNs.Load(),
		Latency:         s.latAll.Summary(),
		PerOp:           make(map[string]LatSummary, int(numOps)),
	}
	for op := OpKind(0); op < numOps; op++ {
		if sum := s.lat[op].Summary(); sum.Count > 0 {
			g.PerOp[op.String()] = sum
		}
	}
	return g
}

// TMStats returns the pool's transactional statistics (abort causes,
// escalations, CM waits, per-block rows), merged across every retired
// epoch plus the current one. The live system's per-thread counters are
// unsynchronized by design, so call it quiescently: after Close, or after
// every submitted request has completed (a response delivery
// happens-before this read for that requester).
func (s *Server) TMStats() tm.Stats {
	cur := s.cur.Load().sys.Stats()
	s.swapMu.Lock()
	per := make([]*tm.ThreadStats, 0, len(s.retired)+1)
	for i := range s.retired {
		per = append(per, &s.retired[i].Total)
	}
	s.swapMu.Unlock()
	per = append(per, &cur.Total)
	st := tm.Aggregate(per)
	st.Threads = s.opt.Workers
	return st
}

// System exposes the pool's runtime name.
func (s *Server) System() string { return s.cur.Load().sys.Name() }

// CheckInvariants re-counts the store's conserved quantities (per-record
// used+free==total, bookings vs customer lists) outside any transaction.
// Quiescent use only, like TMStats.
func (s *Server) CheckInvariants() error {
	ep := s.cur.Load()
	return ep.store.Check(mem.Direct{A: ep.arena}, s.opt.Records)
}

// Close stops admission, drains the queue, joins the workers and the
// watchdog monitor, and returns the server's fatal error, if any.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		<-s.monitorDone
		return s.Err()
	}
	s.closed = true
	close(s.queue)
	s.mu.Unlock()
	s.wg.Wait()
	close(s.stopMonitor)
	<-s.monitorDone
	return s.Err()
}
