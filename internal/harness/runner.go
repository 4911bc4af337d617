package harness

import (
	"errors"
	"fmt"
	"time"

	"github.com/stamp-go/stamp/internal/apps"
	"github.com/stamp-go/stamp/internal/mem"
	"github.com/stamp-go/stamp/internal/thread"
	"github.com/stamp-go/stamp/internal/tm"
	"github.com/stamp-go/stamp/internal/tm/chaos"
	"github.com/stamp-go/stamp/internal/tm/factory"
)

// Options is the single per-run configuration struct of the harness: what
// to run on (System, Threads, Scale) plus every per-run knob. The zero
// value is valid everywhere a field is documented as having a default;
// Validate reports every invalid field at once.
type Options struct {
	// System names the TM runtime to run on (factory.Names / stamp.Systems).
	// Required by RunOne and RunVariant; Characterize and MeasureSpeedup
	// choose their own systems per column and ignore it.
	System string
	// Threads is the worker count (0 = 1). Required to be 1 for "seq",
	// which has no concurrency control.
	Threads int
	// Scale shrinks the workload relative to the paper's configuration
	// (0 = 1.0, the full Table IV arguments). Used wherever a Variant is
	// constructed (RunVariant, Characterize, MeasureSpeedup); RunOne takes
	// an already-built app and ignores it.
	Scale float64

	// CM selects the contention-management policy (tm.CMNames); empty keeps
	// each runtime's default.
	CM string
	// Trace samples every Nth atomic block into per-thread event rings
	// (0 = tracing off; see tm.Config.Trace).
	Trace int
	// Chaos arms deterministic failpoints in the runtime's conflict and
	// commit paths ("" = off; see tm.Config.Chaos for the spec grammar).
	Chaos string
	// ProgressTimeout arms the progress watchdog: if the run's global commit
	// count is flat for a full window, the run is halted, diagnostics are
	// dumped to stderr, and RunOne returns an ErrStalled-wrapped error
	// instead of hanging (0 = watchdog off).
	ProgressTimeout time.Duration

	// RetryThreads is the thread count of Characterize's retries-per-
	// transaction columns (0 = 16, the paper's). Only Characterize reads it.
	RetryThreads int
	// ExtraRetrySystems adds Characterize retry columns for runtimes beyond
	// the paper's six (e.g. "stm-norec"). Only Characterize reads it.
	ExtraRetrySystems []string
	// ThreadCounts is MeasureSpeedup's sweep (nil = DefaultThreads, the
	// paper's 1..16). Only MeasureSpeedup reads it.
	ThreadCounts []int
	// Systems is MeasureSpeedup's runtime set (nil = TMSystems(), the
	// paper's six). "seq" is rejected: it is already every panel's
	// baseline. Only MeasureSpeedup reads it.
	Systems []string
}

// withDefaults resolves the zero values that mean "default".
func (o Options) withDefaults() Options {
	if o.Threads == 0 {
		o.Threads = 1
	}
	if o.Scale == 0 {
		o.Scale = 1
	}
	if o.RetryThreads == 0 {
		o.RetryThreads = 16
	}
	return o
}

// Validate checks every field against its registry and returns all
// problems at once (errors.Join), instead of failing one-at-a-time the way
// constructing the system would — so a CLI or server config with three
// typos reports three errors in one round trip. A zero Options is valid;
// System is checked when set and independently required by RunOne.
func (o Options) Validate() error {
	var errs []error
	bad := func(format string, args ...any) { errs = append(errs, fmt.Errorf(format, args...)) }

	knownSystem := func(name string) bool {
		for _, s := range factory.Names() {
			if s == name {
				return true
			}
		}
		return false
	}
	if o.System != "" && !knownSystem(o.System) {
		bad("unknown system %q (known: %v)", o.System, factory.Names())
	}
	if o.Threads < 0 {
		bad("threads must be >= 0 (0 = 1), got %d", o.Threads)
	}
	if o.System == "seq" && o.Threads > 1 {
		bad("seq is the sequential baseline (no concurrency control) and cannot run at %d threads", o.Threads)
	}
	if o.Scale < 0 {
		bad("scale must be >= 0 (0 = the paper's configuration), got %g", o.Scale)
	}
	if o.CM != "" {
		found := false
		for _, name := range tm.CMNames() {
			if name == o.CM {
				found = true
				break
			}
		}
		if !found {
			bad("unknown contention manager %q (known: %v)", o.CM, tm.CMNames())
		}
	}
	if o.Trace < 0 {
		bad("trace sampling interval must be >= 0, got %d", o.Trace)
	}
	if o.Chaos != "" {
		if _, err := chaos.Parse(o.Chaos); err != nil {
			bad("chaos spec: %v", err)
		}
	}
	if o.ProgressTimeout < 0 {
		bad("progress timeout must be >= 0, got %v", o.ProgressTimeout)
	}
	if o.RetryThreads < 0 {
		bad("retry threads must be >= 0 (0 = 16), got %d", o.RetryThreads)
	}
	for _, t := range o.ThreadCounts {
		if t < 1 {
			bad("thread counts must be >= 1, got %d", t)
		}
	}
	for _, s := range o.Systems {
		if !knownSystem(s) {
			bad("unknown system %q in Systems (known: %v)", s, factory.Names())
		} else if s == "seq" {
			bad("seq is the baseline of every speedup panel and cannot be swept")
		}
	}
	for _, s := range o.ExtraRetrySystems {
		if !knownSystem(s) {
			bad("unknown system %q in ExtraRetrySystems (known: %v)", s, factory.Names())
		}
	}
	return errors.Join(errs...)
}

// Result is the outcome of one app × system × thread-count run.
type Result struct {
	Variant string
	System  string
	Threads int
	CM      string // contention manager requested ("" = runtime default)

	Wall time.Duration // wall time of the parallel region (app.Run)
	// ArenaUsed is the arena's high-water mark in words (mem.Arena.Used)
	// when the run ended: what Setup and Run drew, not what was provisioned.
	ArenaUsed int
	Stats     tm.Stats
	Trace     []tm.TraceEvent // sampled tracer events (nil when Options.Trace == 0)
	Verify    error
}

// RetriesPerTx is a convenience accessor.
func (r Result) RetriesPerTx() float64 { return r.Stats.RetriesPerTx() }

// Blocks is the per-block breakdown of the run (one row per annotated
// atomic-block call site — see tm.NewBlock).
func (r Result) Blocks() []tm.BlockRow { return r.Stats.Blocks() }

// TxTimeFraction estimates the share of execution time spent inside
// transactions: summed per-thread transaction wall time over total thread
// time (threads × region wall time).
func (r Result) TxTimeFraction() float64 {
	total := float64(r.Threads) * float64(r.Wall.Nanoseconds())
	if total == 0 {
		return 0
	}
	f := float64(r.Stats.Total.TxTimeNs) / total
	if f > 1 {
		f = 1
	}
	return f
}

// RunOne stages app into a fresh arena and executes it once on opt.System
// at opt.Threads workers (opt.Scale is ignored: the app is already built).
func RunOne(app apps.App, variant string, opt Options) (Result, error) {
	if err := opt.Validate(); err != nil {
		return Result{}, fmt.Errorf("harness: invalid options: %w", err)
	}
	if opt.System == "" {
		return Result{}, fmt.Errorf("harness: Options.System is required (known: %v)", factory.Names())
	}
	opt = opt.withDefaults()
	arena := mem.NewArena(app.ArenaWords())
	app.Setup(arena)
	var watch *tm.Watch
	if opt.ProgressTimeout > 0 {
		watch = tm.NewWatch(opt.Threads)
	}
	sys, err := factory.New(opt.System, tm.Config{
		Arena:              arena,
		Threads:            opt.Threads,
		EnableEarlyRelease: true,
		CM:                 opt.CM,
		Trace:              opt.Trace,
		Chaos:              opt.Chaos,
		Watch:              watch,
	})
	if err != nil {
		return Result{}, fmt.Errorf("harness: %w", err)
	}
	team := thread.NewTeam(opt.Threads)
	team.SetLabels("app", variant, "system", opt.System)
	start := time.Now()
	if watch == nil {
		if err := runApp(app, sys, team); err != nil {
			return Result{}, err
		}
	} else if err := runWatched(app, sys, team, watch, opt.ProgressTimeout); err != nil {
		return Result{}, err
	}
	wall := time.Since(start)
	return Result{
		Variant:   variant,
		System:    opt.System,
		Threads:   opt.Threads,
		CM:        opt.CM,
		Wall:      wall,
		ArenaUsed: arena.Used(),
		Stats:     sys.Stats(),
		Trace:     tm.TraceEvents(sys),
		Verify:    app.Verify(arena),
	}, nil
}

// runApp executes the parallel region, converting an arena-exhaustion
// unwind (tm.AllocFailure, re-raised by the worker team) into a typed error
// matching mem.ErrArenaFull with errors.Is. Any other panic is the
// application's and propagates.
func runApp(app apps.App, sys tm.System, team *thread.Team) (err error) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if af, ok := r.(tm.AllocFailure); ok {
			err = fmt.Errorf("harness: %s: %w", sys.Name(), af.Err)
			return
		}
		panic(r)
	}()
	app.Run(sys, team)
	return nil
}

// RunVariant constructs the variant at opt.Scale and runs it on opt.System
// at opt.Threads workers.
func RunVariant(v Variant, opt Options) (Result, error) {
	return RunOne(v.Make(opt.withDefaults().Scale), v.Name, opt)
}
