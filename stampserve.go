package stamp

import (
	"github.com/stamp-go/stamp/internal/server"
)

// Serving mode: the batch benchmark recast as a long-lived service. Serve
// builds a persistent transactional arena and a fixed set of tm.Thread
// slots; Server.Do leases one and runs the vacation operation on the
// caller's goroutine, parking for a slot (at most ServerOptions.Queue
// callers at once) when every slot is busy; RunLoad drives an open- or
// closed-loop client mix at it and reports tail latency plus the slots'
// transactional statistics. A caller that must not wait runs go srv.Do(req).

// Server is a long-lived serving instance (see Serve).
type Server = server.Server

// ServerOptions configures Serve. The zero value serves the default
// vacation store on stm-norec, the runtime the repository benchmark's
// serving mixes picked (on stm-mv read-only queries are snapshot-served,
// abort-free while the per-stripe ring — MVVersions — still retains the
// snapshot); Validate reports every invalid field at once.
type ServerOptions = server.Options

// ServerRequest is one operation for Server.Do.
type ServerRequest = server.Request

// ServerResponse is one operation's outcome, including client-observed
// latency (any wait for a slot included).
type ServerResponse = server.Response

// ServerGauges is the live operational readout returned by
// Server.Snapshot; safe to read while requests are in flight.
type ServerGauges = server.Gauges

// LoadOptions shapes one RunLoad run: client count, open-loop arrival rate
// (0 = closed loop), duration, and the vacation op mix.
type LoadOptions = server.LoadOptions

// LoadReport is one load run's outcome: admission accounting, p50/p99/p999
// latency overall and per op, and the pool's tm.Stats.
type LoadReport = server.Report

// LatencySummary is one latency histogram's percentile readout.
type LatencySummary = server.LatSummary

// Request op kinds for ServerRequest.Op.
const (
	OpReserve = server.OpReserve
	OpCancel  = server.OpCancel
	OpUpdate  = server.OpUpdate
	OpQuery   = server.OpQuery
)

// ErrQueueFull reports an admission rejection: with every slot busy and
// ServerOptions.Queue callers already parked for one, the server sheds load
// rather than buffering without bound.
var ErrQueueFull = server.ErrQueueFull

// ErrDeadline reports a served request that exceeded
// ServerOptions.RequestDeadline (admission to completion, the wait for a
// slot — behind other requests or an epoch swap — included).
var ErrDeadline = server.ErrDeadline

// ErrRetriesExhausted reports a served request that hit arena exhaustion on
// every attempt of its ServerOptions.RequestRetries budget, each retry
// behind an epoch swap.
var ErrRetriesExhausted = server.ErrRetriesExhausted

// Serve starts a serving-mode instance: it populates the store in a fresh
// long-lived arena, builds opt.Workers tm.Thread slots, and begins
// accepting requests; requests run on their callers' goroutines, so an idle
// server runs none (but the watchdog's, with opt.ProgressTimeout set). It
// fails, wrapping ErrArenaFull, when the arena cannot hold the store. The
// caller owns the lifecycle and must Close it. With opt.ProgressTimeout
// set, a stalled runtime is halted and every parked and future request
// fails with an ErrStalled-wrapped error instead of hanging.
func Serve(opt ServerOptions) (*Server, error) { return server.New(opt) }

// RunLoad drives opt's request mix at a served instance and blocks until
// every accepted request has answered. The server stays open, so loads can
// be run back to back against warm state.
func RunLoad(s *Server, opt LoadOptions) (LoadReport, error) {
	return server.RunLoad(s, opt)
}
