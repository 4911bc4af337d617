package server

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/stamp-go/stamp/internal/apps/vacation"
	"github.com/stamp-go/stamp/internal/rng"
	"github.com/stamp-go/stamp/internal/tm"
)

// LoadOptions shapes one load-generation run against a Server.
type LoadOptions struct {
	// Clients is the number of concurrent request generators (0 = 4).
	Clients int
	// Rate is the total target arrival rate in requests/second across all
	// clients. Positive rates run OPEN LOOP: arrivals are scheduled on the
	// wall clock regardless of completions, so a saturated server sees
	// queue growth and rejections instead of the generator politely
	// slowing down (coordinated omission). 0 runs closed loop: each client
	// submits its next request when the previous one completes.
	Rate float64
	// Duration bounds the run (0 = 1s).
	Duration time.Duration
	// UserPct is the percentage of read-write requests that are
	// reservations; of the remainder, half cancel and half update
	// inventory — vacation's -u knob (0 = 90, vacation-high's; use -1 for
	// a literal 0).
	UserPct int
	// ROPct is the percentage of all requests that are read-only queries
	// (OpQuery), the serving-mode mix knob the batch suite lacks
	// (0 = all read-write; 100 = all queries).
	ROPct int
	// QueriesPerTx is the items examined per request — vacation's -n
	// (0 = 4, vacation-high's).
	QueriesPerTx int
	// QueryRangePct spans requests over this percentage of the records —
	// vacation's -q (0 = 60, vacation-high's).
	QueryRangePct int
	// Seed makes the generated request stream deterministic per client.
	Seed uint64
}

func (o LoadOptions) withDefaults() LoadOptions {
	if o.Clients == 0 {
		o.Clients = 4
	}
	if o.Duration == 0 {
		o.Duration = time.Second
	}
	if o.UserPct == 0 {
		o.UserPct = 90
	}
	if o.UserPct < 0 {
		o.UserPct = 0
	}
	if o.QueriesPerTx == 0 {
		o.QueriesPerTx = 4
	}
	if o.QueryRangePct == 0 {
		o.QueryRangePct = 60
	}
	return o
}

// Validate reports every invalid field at once.
func (o LoadOptions) Validate() error {
	var errs []error
	bad := func(format string, args ...any) { errs = append(errs, fmt.Errorf(format, args...)) }
	if o.Clients < 0 {
		bad("clients must be >= 0 (0 = 4), got %d", o.Clients)
	}
	if o.Rate < 0 {
		bad("rate must be >= 0 (0 = closed loop), got %g", o.Rate)
	}
	if o.Duration < 0 {
		bad("duration must be >= 0 (0 = 1s), got %v", o.Duration)
	}
	if o.UserPct > 100 {
		bad("user pct must be <= 100, got %d", o.UserPct)
	}
	if o.ROPct < 0 || o.ROPct > 100 {
		bad("ro pct must be in [0, 100], got %d", o.ROPct)
	}
	if o.QueriesPerTx < 0 {
		bad("queries per tx must be >= 0 (0 = 4), got %d", o.QueriesPerTx)
	}
	if o.QueryRangePct < 0 || o.QueryRangePct > 100 {
		bad("query range pct must be in [0, 100], got %d", o.QueryRangePct)
	}
	return errors.Join(errs...)
}

// Report is one load run's outcome: admission accounting, client-observed
// latency percentiles (queue wait included) overall and per op, and the
// pool's transactional statistics.
type Report struct {
	Options LoadOptions
	Elapsed time.Duration

	Offered   uint64 // requests the generators tried to submit
	Completed uint64 // requests that returned success
	Rejected  uint64 // admission rejections (ErrQueueFull)
	Failed    uint64 // requests that returned any other error
	Lost      uint64 // accepted requests unanswered at drain timeout (wedged slot)
	Torn      uint64 // query snapshot violations observed (must stay 0)

	Latency LatSummary
	PerOp   map[string]LatSummary

	TM tm.Stats // pool statistics at drain (zero value if Lost > 0)
}

// Throughput is completed requests per second.
func (r Report) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Completed) / r.Elapsed.Seconds()
}

// nextRequest draws one request from the configured op mix.
func nextRequest(r *rng.Rand, opt LoadOptions, records int) *Request {
	queryRange := records * opt.QueryRangePct / 100
	if queryRange < 1 {
		queryRange = 1
	}
	items := func() []vacation.Item {
		out := make([]vacation.Item, opt.QueriesPerTx)
		for i := range out {
			out[i] = vacation.Item{Typ: r.Intn(vacation.NumTypes), ID: r.Intn(queryRange) + 1}
		}
		return out
	}
	if r.Intn(100) < opt.ROPct {
		return &Request{Op: OpQuery, Items: items()}
	}
	action := r.Intn(100)
	switch {
	case action < opt.UserPct:
		return &Request{Op: OpReserve, Customer: r.Intn(queryRange) + 1, Items: items()}
	case action < opt.UserPct+(100-opt.UserPct)/2:
		return &Request{Op: OpCancel, Customer: r.Intn(queryRange) + 1}
	default:
		updates := make([]vacation.Update, opt.QueriesPerTx)
		for i := range updates {
			updates[i] = vacation.Update{
				Typ: r.Intn(vacation.NumTypes), ID: r.Intn(queryRange) + 1,
				Add: r.Intn(2) == 0, Num: r.Intn(5) + 1, Price: r.Intn(450) + 50,
			}
		}
		return &Request{Op: OpUpdate, Updates: updates}
	}
}

// RunLoad drives opt's request mix at the server — closed-loop clients
// through Do, open-loop ones through Submit — and blocks until every
// accepted request has answered (or a drain timeout expires — a halted pool
// answers its queue fast, so a long drain means a wedged slot). The server
// stays open: callers own its lifecycle and may run several loads in
// sequence.
func RunLoad(s *Server, opt LoadOptions) (Report, error) {
	if err := opt.Validate(); err != nil {
		return Report{}, fmt.Errorf("server: invalid load options: %w", err)
	}
	opt = opt.withDefaults()
	rep := Report{Options: opt, PerOp: make(map[string]LatSummary)}

	var offered, rejected, accepted, collected atomic.Uint64
	responses := make(chan Response, 1024)

	// Collector: single goroutine owns the per-run histograms (the server's
	// own histograms are cumulative across runs). Every response's send —
	// by the client that ran it or the pool goroutine that did — happens
	// after its transaction and before its receive here, and the
	// collector's exit happens-before RunLoad returns — that chain is what
	// makes the final TMStats read race-free.
	var latAll LatHist
	var latOp [numOps]LatHist
	var completed, failed, torn uint64
	stopCollect := make(chan struct{})
	collectorDone := make(chan struct{})
	collect := func(resp Response) {
		collected.Add(1)
		if resp.Err != nil {
			failed++
			return
		}
		completed++
		torn += resp.Torn
		latAll.Add(resp.Latency)
		if resp.Op >= 0 && resp.Op < numOps {
			latOp[resp.Op].Add(resp.Latency)
		}
	}
	go func() {
		defer close(collectorDone)
		for {
			select {
			case resp := <-responses:
				collect(resp)
			case <-stopCollect:
				for {
					select {
					case resp := <-responses:
						collect(resp)
					default:
						return
					}
				}
			}
		}
	}()

	start := time.Now()
	deadline := start.Add(opt.Duration)
	var clientWG sync.WaitGroup
	for c := 0; c < opt.Clients; c++ {
		clientWG.Add(1)
		go func(c int) {
			defer clientWG.Done()
			r := rng.New(opt.Seed ^ 0x6c6f6164 ^ uint64(c)<<32)
			if opt.Rate > 0 {
				// Open loop: fixed wall-clock arrival schedule; responses
				// flow straight to the shared collector.
				interval := time.Duration(float64(opt.Clients) / opt.Rate * float64(time.Second))
				if interval <= 0 {
					interval = time.Nanosecond
				}
				next := start.Add(time.Duration(c) * interval / time.Duration(opt.Clients))
				for time.Now().Before(deadline) {
					if wait := time.Until(next); wait > 0 {
						time.Sleep(wait)
					}
					next = next.Add(interval) // no catch-up compression when behind
					req := nextRequest(r, opt, s.opt.Records)
					req.done = responses
					offered.Add(1)
					if err := s.Submit(req); err != nil {
						if errors.Is(err, ErrQueueFull) {
							rejected.Add(1)
							continue // shed and keep the schedule
						}
						return // halted or closed
					}
					accepted.Add(1)
				}
				return
			}
			// Closed loop: Do runs each request on this goroutine when a
			// slot is free; its response goes to the collector and the
			// next request follows.
			for time.Now().Before(deadline) {
				offered.Add(1)
				resp := s.Do(nextRequest(r, opt, s.opt.Records))
				if errors.Is(resp.Err, ErrQueueFull) {
					rejected.Add(1)
					continue
				}
				accepted.Add(1)
				responses <- resp
				if resp.Err != nil && (s.Err() != nil || errors.Is(resp.Err, ErrClosed)) {
					return // halted or closed
				}
			}
		}(c)
	}
	clientWG.Wait()
	rep.Elapsed = time.Since(start)

	// Drain: each accepted request produces exactly one response (a halted
	// pool answers its queue with fast errors), so wait for the counts to
	// meet. Only a wedged slot can make this time out.
	drainDeadline := time.Now().Add(30 * time.Second)
	for collected.Load() < accepted.Load() && time.Now().Before(drainDeadline) {
		time.Sleep(2 * time.Millisecond)
	}
	close(stopCollect)
	<-collectorDone

	rep.Offered = offered.Load()
	rep.Rejected = rejected.Load()
	rep.Completed = completed
	rep.Failed = failed
	rep.Torn = torn
	if acc := accepted.Load(); completed+failed < acc {
		rep.Lost = acc - completed - failed
	}
	rep.Latency = latAll.Summary()
	for op := OpKind(0); op < numOps; op++ {
		if sum := latOp[op].Summary(); sum.Count > 0 {
			rep.PerOp[op.String()] = sum
		}
	}
	if rep.Lost == 0 {
		// Quiescent: every request's response delivery happens-before
		// this read. With lost requests one may still be running, so
		// leave TM zeroed rather than read unsynchronized counters.
		rep.TM = s.TMStats()
	}
	return rep, nil
}
