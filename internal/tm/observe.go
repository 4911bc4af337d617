package tm

import (
	"sort"

	"github.com/stamp-go/stamp/internal/tm/trace"
)

// Re-exported observability types (see internal/tm/trace for the
// implementations; tm is the layer applications and the harness import).
type (
	// AbortCause classifies why one transactional attempt failed.
	AbortCause = trace.AbortCause
	// ConflictKey names the contended location of an abort (address,
	// stripe, or line; 0 = no identifiable location).
	ConflictKey = trace.Key
	// ConflictRow is one row of the aggregated conflict heatmap
	// (Stats.TopConflicts).
	ConflictRow = trace.ConflictRow
	// TraceEvent is one decoded tracer record (see TraceEvents).
	TraceEvent = trace.Event
	// TraceEventKind discriminates TraceEvent records.
	TraceEventKind = trace.EventKind
)

// Re-exported tracer event kinds (TraceEvent.Kind).
const (
	EvBegin  = trace.EvBegin
	EvAbort  = trace.EvAbort
	EvCommit = trace.EvCommit
	EvWait   = trace.EvWait
)

// The closed abort-cause taxonomy (see the trace package for what each
// cause means; CauseNames lists the display names in this order).
const (
	CauseUnknown           = trace.CauseUnknown
	CauseReadValidation    = trace.CauseReadValidation
	CauseStripeLockBusy    = trace.CauseStripeLockBusy
	CauseSeqChanged        = trace.CauseSeqChanged
	CauseWriteWrite        = trace.CauseWriteWrite
	CauseSignatureConflict = trace.CauseSignatureConflict
	CauseHTMConflict       = trace.CauseHTMConflict
	CauseHTMCapacity       = trace.CauseHTMCapacity
	CauseCMKill            = trace.CauseCMKill
	CauseExplicitRetry     = trace.CauseExplicitRetry
	CauseMVVersionMissing  = trace.CauseMVVersionMissing
	// CauseKilledForIrrevocable marks victims displaced by a starving
	// transaction's escalation to irrevocable mode (see Config.StarveAfter
	// and CauseOrDisplaced).
	CauseKilledForIrrevocable = trace.CauseKilledForIrrevocable
	// CauseAllocExhausted marks a tx.Alloc that found the arena out of
	// capacity; a real miss unwinds the block with AllocFailure after the
	// abort is accounted (see AbortInfo.FailAlloc), while the
	// "alloc-exhaust" chaos site injects only the abort.
	CauseAllocExhausted = trace.CauseAllocExhausted
	NumCauses           = trace.NumCauses
)

// CauseNames returns every abort-cause name in enum order, "unknown" first.
func CauseNames() []string { return trace.CauseNames() }

// traceRingEvents is the per-thread tracer ring capacity in events. The ring
// keeps the newest events when it wraps.
const traceRingEvents = 4096

// NewTracer allocates one per-thread event ring according to the config, or
// returns nil when tracing is off (Config.Trace == 0) — the nil ring's
// methods are no-ops, so the result is stored unconditionally. The shared
// runtime constructor calls this once per worker slot.
func (c Config) NewTracer() *trace.Ring {
	if c.Trace <= 0 {
		return nil
	}
	return trace.NewRing(traceRingEvents, c.Trace)
}

// AbortInfo is the pending-abort registers a transaction carries between
// the conflict site that detects the abort and the retry loop that accounts
// it: the taxonomy cause, the contended location, and the enemy's block
// where the owner was identifiable. Every transaction has one in its TxCore;
// the driver resets it at attempt start and runtimes stamp it at every abort
// site.
type AbortInfo struct {
	Cause AbortCause
	Key   ConflictKey
	Blame BlockID

	// Err carries a terminal failure through the abort path: set (by
	// FailAlloc) when the abort must not be retried, it makes the retry
	// loop unwind the whole block with AllocFailure after accounting the
	// abort. Nil on every ordinary (retryable) abort.
	Err error
}

// Reset clears the registers for a new attempt.
func (a *AbortInfo) Reset() { *a = AbortInfo{} }

// Set stamps the pending abort's cause, location, and blamed enemy block.
// Used on paths that return false instead of unwinding (commit failures).
func (a *AbortInfo) Set(cause AbortCause, key ConflictKey, blame BlockID) {
	a.Cause, a.Key, a.Blame = cause, key, blame
}

// Fail stamps the registers and unwinds the attempt via Retry. It never
// returns.
func (a *AbortInfo) Fail(cause AbortCause, key ConflictKey, blame BlockID) {
	a.Set(cause, key, blame)
	Retry()
}

// FailAlloc is the one alloc-exhaustion abort site shared by every
// runtime's tx.Alloc: it stamps CauseAllocExhausted, records the terminal
// error, and unwinds the attempt through the normal retry path (so locks,
// logs, and serial modes release exactly as on any abort). The retry loop
// then sees Err set and raises AllocFailure instead of retrying. It never
// returns.
func (a *AbortInfo) FailAlloc(err error) {
	a.Err = err
	a.Fail(CauseAllocExhausted, 0, NoBlock)
}

// BailAlloc finishes a terminal alloc-exhaustion abort from the retry loop:
// called after the abort has been accounted, it clears the pending error
// and unwinds the whole atomic block with AllocFailure. The driver calls it
// when Err is non-nil, after releasing the block's contention-manager state
// (see AbandonBlock). It never returns.
func (a *AbortInfo) BailAlloc() {
	err := a.Err
	a.Err = nil
	panic(AllocFailure{Err: err})
}

// TraceEvents collects a system's sampled tracer events across all worker
// rings, time-sorted. It returns nil when tracing was off. Pass the result
// to trace.WriteChrome for a Perfetto-loadable timeline.
func TraceEvents(sys System) []TraceEvent {
	var evs []TraceEvent
	for id := 0; id < sys.NThreads(); id++ {
		evs = append(evs, sys.Thread(id).Stats().Tracer.Snapshot()...)
	}
	sort.Slice(evs, func(i, j int) bool { return evs[i].TimeNs < evs[j].TimeNs })
	return evs
}
