package server

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"math/bits"
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
	// begin-timestamp snapshots, abort-free while the per-stripe ring
	// (MVVersions) still retains the snapshot, and NOrec runs its first
	// attempt without a read log.
	OpQuery
	numOps
)

// opProbe is the test hook: it runs Request.probe as the atomic block, so
// tests can wedge or instrument a slot deterministically. Not reachable
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
	// ErrQueueFull reports an admission rejection: every slot was busy and
	// all Options.Queue parking places were taken when the request arrived.
	// Open-loop clients count it and move on; closed-loop clients may retry
	// with backoff.
	ErrQueueFull = errors.New("server: admission queue full")
	// ErrClosed reports a Do after (or parked across) Close.
	ErrClosed = errors.New("server: closed")
	// ErrStalled re-exports the progress-watchdog sentinel: once the
	// runtime is halted every parked and future request fails wrapping it.
	ErrStalled = harness.ErrStalled
	// ErrDeadline reports that a request exceeded Options.RequestDeadline
	// (measured from admission, so the wait for a slot and epoch-swap hold
	// time count). The request was abandoned without (further) execution.
	ErrDeadline = errors.New("server: request deadline exceeded")
	// ErrRetriesExhausted reports that a request hit arena exhaustion on
	// every attempt of its Options.RequestRetries budget, each retry
	// following an epoch swap. Errors wrapping it also wrap the final
	// attempt's mem.ErrArenaFull.
	ErrRetriesExhausted = errors.New("server: retry budget exhausted")
	// ErrArenaFull re-exports the arena capacity sentinel so callers can
	// match overload responses without importing internal/mem.
	ErrArenaFull = mem.ErrArenaFull
	// ErrBadRequest reports a request Do refused before leasing a slot: an
	// Item or Update whose Typ names no reservation table.
	ErrBadRequest = errors.New("server: bad request")
)

// Options configures a Server. The zero value serves the default store on
// stm-norec; Validate reports every invalid field at once.
type Options struct {
	// System names the TM runtime the slots run on ("" = "stm-norec": with
	// no hand-off left the protocol is the largest cost a request pays, and
	// NOrec's single sequence lock beat stm-lazy's and stm-mv's lock table
	// (and version rings) on both serving mixes of the repository benchmark;
	// ARCHITECTURE.md, "Serving", has the table).
	System string
	// Workers is the number of tm.Thread slots, i.e. the most transactions
	// that run at once: Do leases one for the length of a request and runs
	// it on the caller's goroutine (0 = 4; max 64, the runtime's reader-mask
	// width).
	Workers int
	// Queue bounds the requests parked for a slot (0 = 4×Workers): a Do
	// that finds every slot busy waits in the lease while one of Queue
	// parking places is free, and answers ErrQueueFull otherwise — load
	// shedding, not buffering, is the overload response.
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
	// from Records and OpBudget). New refuses, wrapping ErrArenaFull, a size
	// that cannot hold the store plus one operation's slack per slot.
	ArenaWords int

	// SwapAt is the arena high-water fraction that triggers a proactive
	// epoch swap: the first request to find Used/Cap past it quiesces the
	// slots, compacts the live store into a fresh arena, and is served
	// there (0 = 0.85; must be < 1). Reactive swaps — a request actually
	// hitting arena exhaustion — happen regardless.
	SwapAt float64
	// RequestDeadline bounds each request's admission-to-completion time:
	// a request still unserved past it (waiting for a slot behind a stalled
	// swap, or burning its retry budget) fails with an ErrDeadline-wrapped
	// error instead of waiting forever (0 = no deadline).
	RequestDeadline time.Duration
	// RequestRetries is how many times a request that hits arena
	// exhaustion is retried, each retry behind an epoch swap, before
	// failing with ErrRetriesExhausted (0 = 3).
	RequestRetries int

	// CM and Chaos mirror the harness.Options knobs of the same names.
	CM    string
	Chaos string

	// ProgressTimeout arms the progress watchdog: if slots are leased but
	// the global commit count stays flat across a full window, the runtime
	// is halted, diagnostics are dumped to Diagnostics, and every parked
	// and future request fails with an ErrStalled-wrapped error instead of
	// the listener hanging (0 = off).
	ProgressTimeout time.Duration
	// Diagnostics receives the stall post-mortem (nil = os.Stderr).
	Diagnostics io.Writer

	// Seed seeds store population (and the runtime's backoff jitter).
	Seed uint64
}

func (o Options) withDefaults() Options {
	if o.System == "" {
		o.System = "stm-norec"
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

// minArenaWords is the smallest arena New accepts: StoreWords' bound on the
// rows NewStore allocates, what it leaves out (the arena burns line 0, each
// of the four trees has a two-word header), and one operation's churn on
// every slot.
func minArenaWords(records, workers int) int {
	return mem.WordsPerLine + vacation.StoreWords(records) + 2*(vacation.NumTypes+1) + workers*opSlackWords
}

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
		bad("seq has no concurrency control and cannot serve concurrent slots")
	}
	// Delegate the per-knob registry checks to the harness validator so the
	// two Options surfaces cannot drift.
	ho := harness.Options{
		System: o.System, CM: o.CM, Chaos: o.Chaos,
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
}

// Response is one operation's outcome. Latency is measured from admission
// (the call to Do) to completion, so it includes any wait for a slot — the
// client-visible number, not just service time.
type Response struct {
	Op      OpKind // echoes the request's op (shared-channel consumers key on it)
	Value   uint64 // OpQuery: total free inventory seen
	Torn    uint64 // OpQuery: snapshot-consistency violations observed (must be 0)
	Latency time.Duration
	Err     error
}

// Gauges is the server's live operational readout. Every field is read
// from atomics, so Snapshot is safe (and exact per counter) while requests
// are in flight — unlike TMStats, which wants quiescence.
type Gauges struct {
	Served   uint64 `json:"served"`
	Rejected uint64 `json:"rejected"`
	Failed   uint64 `json:"failed"`
	// Inline counts the requests that found a slot free and never parked;
	// the rest of Served+Failed waited in the lease first.
	Inline uint64 `json:"inline"`
	// Inflight is the number of leased slots; an epoch swap in progress
	// holds all of them.
	Inflight int64 `json:"inflight"`
	// QueueDepth counts the requests parked for a slot now, QueueCap is
	// Options.Queue, QueueHW the most ever parked (0 if no slot ran out).
	QueueDepth int   `json:"queue_depth"`
	QueueCap   int   `json:"queue_cap"`
	QueueHW    int64 `json:"queue_high_water"`
	Workers    int   `json:"workers"`
	ArenaUsed  int   `json:"arena_used_words"`
	ArenaCap   int   `json:"arena_cap_words"`

	// Epoch counts arena generations (0 = the arena New built); Swaps is
	// the number of completed epoch swaps (== Epoch). SwapPauseNs is the
	// cumulative quiesce-to-resume pause across all swaps, LastSwapPauseNs
	// the most recent one and MaxSwapPauseNs the longest — the serving-mode
	// availability cost of arena compaction.
	Epoch           uint64 `json:"epoch"`
	Swaps           uint64 `json:"swaps"`
	SwapPauseNs     int64  `json:"swap_pause_ns_total"`
	LastSwapPauseNs int64  `json:"last_swap_pause_ns"`
	MaxSwapPauseNs  int64  `json:"max_swap_pause_ns"`
	// ReclaimedWords sums, over all swaps, the retired arena's Used minus
	// the fresh arena's Used after compaction: the bump high-water each
	// swap won back. A swap that reclaims little is one that will soon be
	// followed by another.
	ReclaimedWords int64 `json:"reclaimed_words"`

	Latency LatSummary            `json:"latency"`
	PerOp   map[string]LatSummary `json:"per_op"`
}

// epochState is one arena generation: the arena, the TM system running on
// it, and the store rooted in it. The three swap together atomically — a
// slot holder resolves all of them from one pointer load, and the pointer
// only changes while a swap holds every slot.
type epochState struct {
	epoch uint64
	arena *mem.Arena
	sys   tm.System
	store vacation.Store
}

// slot is one tm.Thread slot of every epoch's system together with
// everything its holder writes while serving: the request the pre-bound
// block bodies read, and this slot's share of the counters and latency
// histograms (Snapshot sums them over the slots). A slot is held from lease
// to release by exactly one goroutine, so nothing here is contended; the
// counters are atomics only so Snapshot may read them mid-flight.
type slot struct {
	id int

	// The request in progress, read by the block bodies below. They are
	// bound once in New: a closure over (ep, req, &resp) built per request
	// would be two heap allocations on every Do.
	ep          *epochState
	req         *Request
	value, torn uint64 // OpQuery's result
	reserve     func(tm.Tx)
	cancel      func(tm.Tx)
	update      func(tm.Tx)
	query       func(tm.Tx)

	served, failed, inline atomic.Uint64
	lat                    [numOps]LatHist

	// The next slot's hot fields start a full line past this slot's
	// histograms, whatever the allocator's alignment.
	_ [64]byte
}

func (sl *slot) bind() {
	sl.reserve = func(tx tm.Tx) { sl.ep.store.MakeReservation(tx, sl.req.Customer, sl.req.Items) }
	sl.cancel = func(tx tm.Tx) { sl.ep.store.DeleteCustomer(tx, sl.req.Customer) }
	sl.update = func(tx tm.Tx) { sl.ep.store.UpdateTables(tx, sl.req.Updates) }
	sl.query = func(tx tm.Tx) {
		free, torn := sl.ep.store.QueryFree(tx, sl.req.Items)
		sl.value, sl.torn = free, uint64(torn)
	}
}

// Server serves vacation operations on a fixed set of tm.Thread slots over
// a sequence of arena epochs. The slot lease is its one concurrency and
// admission mechanism: a request runs on its caller's goroutine while that
// goroutine holds a slot, parking in the lease when none is free; an epoch
// swap and Close quiesce the server by leasing every slot. When the
// current arena's high-water crosses Options.SwapAt (or a request actually
// hits exhaustion), the live store is compacted into a fresh arena under
// such a quiesce and serving resumes on the new epoch.
type Server struct {
	opt        Options
	arenaWords int // per-epoch arena size
	watch      *tm.Watch
	chaos      *chaos.Injector // serving-mode failpoints (swap-stall)
	slots      []slot

	// Read on every request, written only by swap, halt, Close and a
	// goroutine about to block for a slot.
	cur     atomic.Pointer[epochState] // replaced only with every slot held
	fatal   atomic.Pointer[error]
	stopped atomic.Bool  // Close has begun: requests answer ErrClosed
	waiters atomic.Int32 // goroutines blocked in lease; see tryLease

	// free has bit i set while slot i is unleased: the one word every
	// request writes, on a line of its own.
	_    [64]byte
	free atomic.Uint64
	_    [56]byte

	// waitMu guards waitq, the goroutines waiting in lease in arrival
	// order. swapMu single-flights the quiescers (swaps and Close) and
	// guards retired, the retired epochs' transactional statistics folded
	// into one record.
	waitMu  sync.Mutex
	waitq   []waiter
	swapMu  sync.Mutex
	retired tm.ThreadStats

	// onRetire, when set (tests only, before any request), is called by
	// each swap with the arena it retired, after releasing it.
	onRetire func(*mem.Arena)

	stopMonitor chan struct{}
	monitorDone chan struct{}

	// Written off the inline path only: by a parked request, a rejection,
	// an answer given without a slot (failed or closed server), a swap.
	parked          atomic.Int64 // requests holding a parking place; see lease
	rejected        atomic.Uint64
	failedNoSlot    atomic.Uint64
	queueHW         atomic.Int64
	swaps           atomic.Uint64
	swapPauseNs     atomic.Int64
	lastSwapPauseNs atomic.Int64
	maxSwapPauseNs  atomic.Int64
	reclaimedWords  atomic.Int64
}

// New builds the store in a fresh long-lived arena and constructs the TM
// system with one thread slot per worker; it starts no goroutine but the
// watchdog's (Options.ProgressTimeout).
func New(opt Options) (*Server, error) {
	if err := opt.Validate(); err != nil {
		return nil, fmt.Errorf("server: invalid options: %w", err)
	}
	opt = opt.withDefaults()
	words := opt.ArenaWords
	if words == 0 {
		words = vacation.StoreWords(opt.Records) + opt.OpBudget*opSlackWords + 1<<16
	}
	if floor := minArenaWords(opt.Records, opt.Workers); words < floor {
		return nil, fmt.Errorf("server: a %d-record store and one operation's slack on each of %d slots need %d arena words, have %d: %w",
			opt.Records, opt.Workers, floor, words, ErrArenaFull)
	}
	if uint64(words) > mem.MaxWords {
		return nil, fmt.Errorf("server: %d arena words exceed the 32-bit word-address range (at most %d)", words, uint64(mem.MaxWords))
	}
	s := &Server{
		opt:         opt,
		arenaWords:  words,
		slots:       make([]slot, opt.Workers),
		stopMonitor: make(chan struct{}),
		monitorDone: make(chan struct{}),
	}
	for i := range s.slots {
		s.slots[i].id = i
		s.slots[i].bind()
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
	s.free.Store(^uint64(0) >> (64 - len(s.slots))) // every slot unleased
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
		Chaos:              s.opt.Chaos,
		Watch:              s.watch,
		Seed:               s.opt.Seed,
	})
}

// Err returns the server's fatal error: non-nil once the runtime has been
// halted by the watchdog or a request hit an unrecoverable panic. Every
// parked request and every Do after that fails fast with it.
func (s *Server) Err() error {
	if p := s.fatal.Load(); p != nil {
		return *p
	}
	return nil
}

// fail latches the fatal error; the first sends parked requests away with it.
func (s *Server) fail(err error) {
	if s.fatal.CompareAndSwap(nil, &err) {
		s.wake()
	}
}

// leased counts the slots held right now.
func (s *Server) leased() int { return len(s.slots) - bits.OnesCount64(s.free.Load()) }

// grab takes the lowest free slot, or returns nil when all are held.
// Lowest-first keeps a lone caller on slot 0 and its warm descriptor.
func (s *Server) grab() *slot {
	for {
		free := s.free.Load()
		if free == 0 {
			return nil
		}
		i := bits.TrailingZeros64(free)
		if s.free.CompareAndSwap(free, free&^(1<<i)) {
			return &s.slots[i]
		}
	}
}

// tryLease is Do's non-blocking lease. It stands aside while anyone is
// waiting in lease: a parked request or a quiescing swap gets the next free
// slot, not whichever caller arrives as it is released — otherwise a
// closed loop of inline callers could starve both forever.
func (s *Server) tryLease() *slot {
	if s.waiters.Load() != 0 {
		return nil
	}
	return s.grab()
}

// waiter is a goroutine blocked in lease: handOff sends it a slot, or nil
// once the server has failed or is closing if it is a parked request.
type waiter struct {
	slot   chan *slot
	parked bool
}

// lease blocks until it holds a slot. A parked request first takes one of
// Options.Queue parking places, ErrQueueFull when none is left, and gets
// the fatal error or ErrClosed if the server fails or closes while it
// waits; a quiescer waits regardless. Announcing itself in waiters before
// its own handOff, and release reading waiters after freeing its bit,
// means one of the two hands that bit on: no wake-up is lost.
func (s *Server) lease(parked bool) (*slot, error) {
	s.waitMu.Lock()
	if parked {
		if s.parked.Load() >= int64(s.opt.Queue) {
			s.waitMu.Unlock()
			s.rejected.Add(1)
			return nil, ErrQueueFull
		}
		s.queueHW.Store(max(s.queueHW.Load(), s.parked.Add(1))) // both written under waitMu only
	}
	w := waiter{make(chan *slot, 1), parked}
	s.waiters.Add(1)
	s.waitq = append(s.waitq, w)
	s.handOff()
	s.waitMu.Unlock()
	if sl := <-w.slot; sl != nil {
		return sl, nil
	}
	s.failedNoSlot.Add(1)
	return nil, cmp.Or(s.Err(), ErrClosed)
}

// handOff, under waitMu, gives free slots to the waiters first come first
// served (a request that has just released a slot queues behind those
// already waiting) and, once the server has failed or is closing, sends
// the parked ones away. Either way they leave their parking places here,
// so none is taken once Close's handOff has run.
func (s *Server) handOff() {
	gone := s.fatal.Load() != nil || s.stopped.Load()
	q := s.waitq[:0]
	for _, w := range s.waitq {
		var sl *slot
		if !w.parked || !gone {
			if len(q) == 0 { // nobody ahead of w still waits
				sl = s.grab()
			}
			if sl == nil {
				q = append(q, w)
				continue
			}
		}
		if w.parked {
			s.parked.Add(-1)
		}
		s.waiters.Add(-1)
		w.slot <- sl
	}
	clear(s.waitq[len(q):])
	s.waitq = q
}

func (s *Server) wake() {
	s.waitMu.Lock()
	s.handOff()
	s.waitMu.Unlock()
}

// release returns a leased slot and hands it on if anyone waits.
func (s *Server) release(sl *slot) {
	sl.ep, sl.req = nil, nil // a retired epoch's arena must not outlive its last request here
	s.free.Or(1 << sl.id)
	if s.waiters.Load() != 0 {
		s.wake()
	}
}

// quiesce leases every slot, so that on return no request is executing and
// none can start; resume gives them all back. The caller holds swapMu and
// no slot. It cannot deadlock: there is one quiescer at a time, it starts
// with nothing, and a slot holder never waits for a second slot or for
// swapMu — so every held slot is released after a bounded wait, and
// handOff serves the quiescer after at most the requests parked before it.
func (s *Server) quiesce() {
	for range s.slots {
		s.lease(false)
	}
}

func (s *Server) resume() {
	for i := range s.slots {
		s.release(&s.slots[i])
	}
}

// Do runs req to completion on the caller's goroutine and returns its
// response. With a slot free — the common case whenever callers number no
// more than Options.Workers — the operation executes at once. With every
// slot busy (or a swap quiescing them) Do parks in lease for one.
func (s *Server) Do(req *Request) Response {
	if err := s.Err(); err != nil {
		return Response{Op: req.Op, Err: err}
	}
	if err := req.check(); err != nil {
		return Response{Op: req.Op, Err: err}
	}
	req.arrive = time.Now()
	if sl := s.tryLease(); sl != nil {
		sl.inline.Add(1)
		return s.run(sl, req)
	}
	sl, err := s.lease(true)
	if err != nil {
		return Response{Op: req.Op, Err: err, Latency: time.Since(req.arrive)}
	}
	return s.run(sl, req)
}

// check rejects a request naming a reservation table outside
// [0, vacation.NumTypes): the store indexes its tables by Typ, so the
// request would panic inside the runtime and fail the whole server.
func (req *Request) check() error {
	for _, it := range req.Items {
		if uint(it.Typ) >= vacation.NumTypes {
			return fmt.Errorf("%w: item type %d", ErrBadRequest, it.Typ)
		}
	}
	for _, u := range req.Updates {
		if uint(u.Typ) >= vacation.NumTypes {
			return fmt.Errorf("%w: update type %d", ErrBadRequest, u.Typ)
		}
	}
	return nil
}

// run executes req on the leased slot sl, books the outcome on the slot it
// finished on, and releases that slot.
func (s *Server) run(sl *slot, req *Request) Response {
	resp, sl := s.execute(sl, req)
	resp.Op = req.Op
	resp.Latency = time.Since(req.arrive)
	if resp.Err != nil {
		sl.failed.Add(1)
	} else {
		sl.served.Add(1)
		if req.Op >= 0 && req.Op < numOps {
			sl.lat[req.Op].Add(resp.Latency)
		}
	}
	s.release(sl)
	return resp
}

// execute runs one request to completion across epoch swaps, entered and
// left holding a slot (not necessarily the same one). Each attempt serves
// on the current epoch. A request that arrives to find the arena past
// SwapAt, and any attempt that hits arena exhaustion, gives its slot up,
// swaps the epoch, leases again and goes on on the fresh one, up to the
// retry budget and the request deadline. A request that arrives during a
// swap waits for its slot — and fails with ErrDeadline instead of serving
// if the wait consumed its deadline.
func (s *Server) execute(sl *slot, req *Request) (Response, *slot) {
	// attempt counts serves; only the first look at the arena may swap
	// ahead of need, or a live set past SwapAt would swap here forever.
	for attempt, first := 0, true; ; first = false {
		if err := s.Err(); err != nil {
			// Never re-enter a halted runtime: it may hold locks.
			return Response{Err: err}, sl
		}
		if s.stopped.Load() {
			return Response{Err: ErrClosed}, sl
		}
		if d := s.opt.RequestDeadline; d > 0 {
			if since := time.Since(req.arrive); since > d {
				return Response{Err: fmt.Errorf("%w (%v since admission)",
					ErrDeadline, since.Round(time.Millisecond))}, sl
			}
		}
		ep := s.cur.Load()
		if !first || float64(ep.arena.Used()) < s.opt.SwapAt*float64(ep.arena.Cap()) {
			resp := s.serve(ep, sl, req)
			if !errors.Is(resp.Err, mem.ErrArenaFull) {
				return resp, sl
			}
			if attempt++; attempt > s.opt.RequestRetries {
				return Response{Err: fmt.Errorf("%w (%d attempts): %w",
					ErrRetriesExhausted, attempt, resp.Err)}, sl
			}
		}
		// Proactive (high-water past the threshold) or reactive (this
		// request could not be placed). The swap needs every slot, ours
		// included.
		s.release(sl)
		s.trySwap(ep.epoch)
		sl, _ = s.lease(false)
	}
}

// serve executes one request as one named atomic block on epoch ep and slot
// sl, converting watchdog halts (and any other panic out of the runtime)
// into errors on the response instead of killing the caller. Arena
// exhaustion (tm.AllocFailure) is a per-request, recoverable outcome —
// execute retries it behind an epoch swap — not a server-fatal one.
func (s *Server) serve(ep *epochState, sl *slot, req *Request) (resp Response) {
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
		err := fmt.Errorf("server: %s panicked: %v", req.Op, r)
		s.fail(err)
		resp.Err = err
	}()
	sl.ep, sl.req = ep, req
	th := ep.sys.Thread(sl.id)
	switch req.Op {
	case OpReserve:
		th.AtomicAt(blkReserve, sl.reserve)
	case OpCancel:
		th.AtomicAt(blkCancel, sl.cancel)
	case OpUpdate:
		th.AtomicAt(blkUpdate, sl.update)
	case OpQuery:
		th.AtomicAt(blkQuery, sl.query)
		resp.Value, resp.Torn = sl.value, sl.torn
	case opProbe:
		th.AtomicAt(blkProbe, req.probe)
	default:
		resp.Err = fmt.Errorf("server: unknown op %d", int(req.Op))
	}
	return resp
}

// trySwap retires the epoch numbered fromEpoch: it quiesces the server,
// compacts the live store into a fresh arena, installs a new system,
// resumes, and then releases the retired arena (mem.Arena.Release), so its
// pages go back without waiting for a collection. The caller holds no
// slot. Swaps are single-flight — concurrent triggers for the same epoch
// collapse into one, and a caller whose epoch has already been retired
// returns immediately (its request simply retries on the fresh one).
func (s *Server) trySwap(fromEpoch uint64) {
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	old := s.cur.Load()
	if old.epoch != fromEpoch || s.Err() != nil || s.stopped.Load() {
		return
	}
	start := time.Now()
	s.quiesce()
	// Failpoint: wedge between quiesce and arena install — the window where
	// every request waits for a slot.
	s.chaos.Stall(chaos.SwapStall, 0)
	arena := mem.NewArena(s.arenaWords)
	store := old.store.CompactInto(mem.Direct{A: old.arena}, mem.Direct{A: arena})
	sys, err := s.newSystem(arena)
	if err != nil {
		// Unreachable in practice: the same options built the old epoch.
		s.fail(fmt.Errorf("server: epoch swap: %w", err))
		s.resume()
		return
	}
	// Every slot is ours, so the retiring system's per-thread counters are
	// exact; bank them for TMStats before dropping the epoch to the
	// collector.
	retiring := old.sys.Stats()
	s.retired.Merge(&retiring.Total)
	s.reclaimedWords.Add(int64(old.arena.Used() - arena.Used()))
	s.cur.Store(&epochState{epoch: old.epoch + 1, arena: arena, sys: sys, store: store})
	pause := time.Since(start).Nanoseconds()
	s.swaps.Add(1)
	s.swapPauseNs.Add(pause)
	s.lastSwapPauseNs.Store(pause)
	s.maxSwapPauseNs.Store(max(pause, s.maxSwapPauseNs.Load())) // single writer: swapMu
	s.resume()
	// Every request that could read the old arena ran under a slot the
	// swap held, so none is left, and new ones see the new epoch. Releasing
	// after resume keeps the page drop out of the pause; Snapshot may still
	// read the old arena's Used and Cap, which stay valid.
	old.arena.Release()
	if s.onRetire != nil {
		s.onRetire(old.arena)
	}
}

// monitor is the serving-mode progress watchdog: unlike the batch
// harness's (which expects the run to finish), an idle server legitimately
// commits nothing, so a stall verdict additionally requires requests in
// flight — slots leased — at both edges of a flat-commit window.
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
			busy := s.leased() > 0
			if commits != lastCommits || !busy || !lastBusy {
				lastCommits, lastBusy = commits, busy
				continue
			}
			reason := fmt.Sprintf("no commit progress for %v with requests in flight (commits stuck at %d)",
				window, commits)
			s.fail(fmt.Errorf("%w: %s", ErrStalled, reason))
			s.watch.Halt(reason)
			// Grace period: slot holders observe the halt at their next
			// poll and unwind; if every in-flight request drains we can
			// read exact statistics, otherwise dump partial counters only.
			deadline := time.Now().Add(max(window, time.Second))
			for s.leased() != 0 && time.Now().Before(deadline) {
				time.Sleep(5 * time.Millisecond)
			}
			s.dumpStall(reason, s.leased() == 0)
			return
		}
	}
}

// dumpStall writes the serving-mode post-mortem: the gauge line plus (when
// the slots quiesced) the statistics Stats.WriteStall shares with batch
// runs.
func (s *Server) dumpStall(reason string, quiesced bool) {
	out := s.opt.Diagnostics
	fmt.Fprintf(out, "server: progress watchdog: %s\n", reason)
	g := s.Snapshot()
	fmt.Fprintf(out, "server: system=%s workers=%d epoch=%d served=%d rejected=%d inflight=%d queued=%d/%d\n",
		s.System(), g.Workers, g.Epoch, g.Served, g.Rejected, g.Inflight, g.QueueDepth, g.QueueCap)
	if !quiesced {
		fmt.Fprintf(out, "server: slots did not quiesce within the grace period; partial diagnostics only\n")
		return
	}
	s.TMStats().WriteStall(out)
}

// Snapshot returns the live gauges: the slots' counters and latency
// histograms summed, parked count and high-water, arena usage, swap pauses.
func (s *Server) Snapshot() Gauges {
	ep := s.cur.Load()
	g := Gauges{
		Rejected:        s.rejected.Load(),
		Failed:          s.failedNoSlot.Load(),
		Inflight:        int64(s.leased()),
		QueueDepth:      int(s.parked.Load()),
		QueueCap:        s.opt.Queue,
		QueueHW:         s.queueHW.Load(),
		Workers:         s.opt.Workers,
		ArenaUsed:       ep.arena.Used(),
		ArenaCap:        ep.arena.Cap(),
		Epoch:           ep.epoch,
		Swaps:           s.swaps.Load(),
		SwapPauseNs:     s.swapPauseNs.Load(),
		LastSwapPauseNs: s.lastSwapPauseNs.Load(),
		MaxSwapPauseNs:  s.maxSwapPauseNs.Load(),
		ReclaimedWords:  s.reclaimedWords.Load(),
		PerOp:           make(map[string]LatSummary, int(numOps)),
	}
	var all latCounts
	for op := OpKind(0); op < numOps; op++ {
		var c latCounts
		for i := range s.slots {
			c.add(&s.slots[i].lat[op])
			all.add(&s.slots[i].lat[op])
		}
		if sum := c.summary(); sum.Count > 0 {
			g.PerOp[op.String()] = sum
		}
	}
	g.Latency = all.summary()
	for i := range s.slots {
		sl := &s.slots[i]
		g.Served += sl.served.Load()
		g.Failed += sl.failed.Load()
		g.Inline += sl.inline.Load()
	}
	return g
}

// TMStats returns the slots' transactional statistics (abort causes,
// escalations, CM waits, per-block rows), merged across every retired
// epoch plus the current one. The live system's per-thread counters are
// unsynchronized by design, so call it quiescently: after Close, or after
// every Do has returned (its return happens-before this read for that
// caller).
func (s *Server) TMStats() tm.Stats {
	cur := s.cur.Load().sys.Stats()
	s.swapMu.Lock()
	st := tm.Aggregate([]*tm.ThreadStats{&s.retired, &cur.Total})
	s.swapMu.Unlock()
	st.Threads = s.opt.Workers
	return st
}

// System exposes the runtime's name.
func (s *Server) System() string { return s.cur.Load().sys.Name() }

// CheckInvariants re-counts the store's conserved quantities (per-record
// used+free==total, bookings vs customer lists) outside any transaction.
// Quiescent use only, like TMStats.
func (s *Server) CheckInvariants() error {
	ep := s.cur.Load()
	return ep.store.Check(mem.Direct{A: ep.arena}, s.opt.Records)
}

// Close refuses new requests with ErrClosed, sends the parked ones away to
// answer it, waits out every request still running on a slot, joins the
// watchdog monitor, and returns the server's fatal error, if any: on
// return no request runs and none is parked. It does
// not release the live epoch's arena: callers still run CheckInvariants and
// TMStats after Close, and the collector returns the arena once the Server
// is dropped.
func (s *Server) Close() error {
	if !s.stopped.Swap(true) {
		s.wake()
		s.swapMu.Lock()
		s.quiesce()
		s.resume()
		s.swapMu.Unlock()
		close(s.stopMonitor)
	}
	<-s.monitorDone
	return s.Err()
}
