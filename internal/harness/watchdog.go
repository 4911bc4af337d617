package harness

import (
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"github.com/stamp-go/stamp/internal/apps"
	"github.com/stamp-go/stamp/internal/thread"
	"github.com/stamp-go/stamp/internal/tm"
)

// ErrStalled reports that a run made no commit progress for a full
// Options.ProgressTimeout window and was halted by the progress watchdog.
// Errors returned by RunOne for a stalled run match it with errors.Is, so
// drivers can distinguish "the workload livelocked or deadlocked" from an
// ordinary construction or verification failure.
var ErrStalled = errors.New("harness: run stalled (no commit progress)")

// runWatched executes app.Run under the progress watchdog: a monitor
// compares the watch's global commit count once per window and, if a full
// window passes without a single commit anywhere in the team, halts the
// watch (unwinding every worker via tm.HaltSignal), dumps diagnostics to
// stderr, and reports the stall as an ErrStalled-wrapped error instead of
// letting the process hang.
func runWatched(app apps.App, sys tm.System, team *thread.Team, w *tm.Watch, window time.Duration) error {
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		app.Run(sys, team)
	}()
	ticker := time.NewTicker(window)
	defer ticker.Stop()
	last := w.Commits()
	for {
		select {
		case r := <-done:
			if r == nil {
				return nil
			}
			if hs, ok := r.(tm.HaltSignal); ok {
				// A halt raced run completion; still a stall.
				return fmt.Errorf("%w: %s", ErrStalled, hs.Reason)
			}
			if af, ok := r.(tm.AllocFailure); ok {
				// Arena exhaustion is a typed, recoverable outcome, not a
				// stall and not an application bug.
				return fmt.Errorf("harness: %s: %w", sys.Name(), af.Err)
			}
			panic(r) // application panic: not ours to swallow
		case <-ticker.C:
			if now := w.Commits(); now != last {
				last = now
				continue
			}
			reason := fmt.Sprintf("no commit progress for %v (commits stuck at %d)", window, last)
			w.Halt(reason)
			// Grace period: let the workers observe the halt and unwind, so
			// the diagnostics below can read quiesced (exact) statistics.
			quiesced := true
			select {
			case <-done:
			case <-time.After(max(window, time.Second)):
				quiesced = false // a worker is wedged somewhere unpolled
			}
			dumpStall(os.Stderr, sys, w, reason, quiesced)
			return fmt.Errorf("%w: %s", ErrStalled, reason)
		}
	}
}

// dumpStall writes the post-mortem for a halted run: the abort-cause table,
// the conflict heatmap's hottest rows, and the tail of the sampled trace —
// enough to tell a livelocked protocol from a wedged workload without
// re-running under a debugger. When the team did not quiesce within the
// grace period only the watchdog's own counters are reported (the
// per-thread statistics would be racy to read).
func dumpStall(out io.Writer, sys tm.System, w *tm.Watch, reason string, quiesced bool) {
	fmt.Fprintf(out, "harness: progress watchdog: %s\n", reason)
	fmt.Fprintf(out, "harness: system=%s commits=%d\n", sys.Name(), w.Commits())
	if !quiesced {
		fmt.Fprintf(out, "harness: team did not quiesce within the grace period; partial diagnostics only\n")
		return
	}
	sys.Stats().WriteStall(out)
	names := tm.CauseNames()
	events := tm.TraceEvents(sys)
	if len(events) > 16 {
		events = events[len(events)-16:]
	}
	for _, ev := range events {
		fmt.Fprintf(out, "  trace t=%dns kind=%d cause=%s thread=%d block=%d\n",
			ev.TimeNs, ev.Kind, names[ev.Cause], ev.Thread, ev.Block)
	}
}
