package tm

import (
	"fmt"
	"io"
	"sync/atomic"
)

// HaltSignal is the panic value a worker unwinds with when the liveness
// watchdog has halted the run (see Watch.Halt). It deliberately is not
// RetrySignal: tm.Attempt does not recover it, so it propagates out of the
// atomic block, through the runtime's retry loop, and up to thread.Team.Run,
// which re-raises it on the caller once the team has drained. The harness
// recovers it there and turns the run into a diagnosable failure instead of
// a hang.
type HaltSignal struct {
	// Reason says why the run was halted (e.g. "no commits for 2s").
	Reason string
}

// Watch is the liveness watchdog's shared state: a per-thread padded commit
// counter the monitor reads for progress, and a halt latch every blocked or
// retrying transaction polls at attempt boundaries. A nil *Watch is the
// disarmed state — all methods are nil-receiver no-ops costing one pointer
// test — so runtimes thread Config.Watch through unconditionally.
type Watch struct {
	slots  []PaddedUint64 // per-thread commit counts (no false sharing)
	halted atomic.Bool
	reason atomic.Pointer[string]
}

// NewWatch builds a watch for a team of the given worker count.
func NewWatch(threads int) *Watch {
	if threads < 1 {
		threads = 1
	}
	return &Watch{slots: make([]PaddedUint64, threads)}
}

// Bump credits one commit to worker tid. The driver calls it once per
// committed atomic block, on every runtime.
func (w *Watch) Bump(tid int) {
	if w == nil {
		return
	}
	w.slots[tid].Add(1)
}

// Commits returns the global commit count: the monitor's progress signal.
// Safe to call concurrently with workers.
func (w *Watch) Commits() uint64 {
	if w == nil {
		return 0
	}
	var sum uint64
	for i := range w.slots {
		sum += w.slots[i].Load()
	}
	return sum
}

// Halt latches the halt flag with the given reason. The first caller wins;
// later reasons are dropped. Workers observe the latch at their next Poll
// and unwind with HaltSignal.
func (w *Watch) Halt(reason string) {
	if w == nil {
		return
	}
	if w.reason.CompareAndSwap(nil, &reason) {
		// Reason is published before the latch, so a Poll that observes
		// halted always finds the winner's reason.
		w.halted.Store(true)
	}
}

// Halted reports whether the watch has been halted.
func (w *Watch) Halted() bool { return w != nil && w.halted.Load() }

// Reason returns the halt reason ("" while running).
func (w *Watch) Reason() string {
	if w == nil {
		return ""
	}
	if r := w.reason.Load(); r != nil {
		return *r
	}
	return ""
}

// Poll panics with HaltSignal if the watch has been halted. Workers call it
// at attempt boundaries and inside every unbounded wait loop the escalation
// layer owns, so a halted run drains instead of spinning forever. No-op on a
// nil watch.
func (w *Watch) Poll() {
	if w == nil || !w.halted.Load() {
		return
	}
	panic(HaltSignal{Reason: w.Reason()})
}

// WriteStall writes the statistics every stall post-mortem shares: the
// counter line, the abort-cause table and the eight hottest conflict rows.
// st must be read quiescently (no worker left inside a transaction).
func (st Stats) WriteStall(out io.Writer) {
	fmt.Fprintf(out, "  starts=%d commits=%d aborts=%d escalations=%d cm-waits=%d\n",
		st.Total.Starts, st.Total.Commits, st.Total.Aborts, st.Total.Escalations, st.Total.CMWaits)
	names := CauseNames()
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
