package harness

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// SpeedupSeries is one Figure 1 panel: speedups over the sequential
// baseline for each TM system across thread counts.
type SpeedupSeries struct {
	Variant  string
	Threads  []int
	Baseline float64 // sequential wall ns

	// Wall[sys][i] is the wall ns at Threads[i]; Speedup = Baseline/Wall.
	Wall map[string][]float64
	// ModelSpeedup[sys][i] applies the cycle model documented on
	// ModelSpeedup: it discounts the software cost of simulating
	// hardware barriers so HTM/hybrid systems are compared the way the
	// paper's simulator compares them.
	ModelSpeedup map[string][]float64
}

// DefaultThreads is the paper's core sweep.
var DefaultThreads = []int{1, 2, 4, 8, 16}

// MeasureSpeedup runs the full Figure 1 sweep for one variant at
// opt.Scale: opt.Systems (nil = the paper's six) at each of
// opt.ThreadCounts (nil = DefaultThreads) against the sequential baseline.
// The remaining per-run knobs of opt (e.g. CM) apply to every TM run — the
// sequential baseline has no contention to manage. opt.System and
// opt.Threads are ignored: the sweep picks its own per cell.
func MeasureSpeedup(v Variant, opt Options) (SpeedupSeries, error) {
	s := SpeedupSeries{
		Variant:      v.Name,
		Wall:         map[string][]float64{},
		ModelSpeedup: map[string][]float64{},
	}
	if err := opt.Validate(); err != nil {
		return s, fmt.Errorf("harness: invalid options: %w", err)
	}
	opt = opt.withDefaults()
	threads := opt.ThreadCounts
	if len(threads) == 0 {
		threads = DefaultThreads
	}
	systems := opt.Systems
	if len(systems) == 0 {
		systems = TMSystems()
	}
	s.Threads = threads
	app := v.Make(opt.Scale)
	base, err := RunOne(app, v.Name, Options{System: "seq", Threads: 1})
	if err != nil {
		return s, err
	}
	if base.Verify != nil {
		return s, fmt.Errorf("speedup %s: seq baseline failed verification: %w", v.Name, base.Verify)
	}
	s.Baseline = float64(base.Wall.Nanoseconds())
	for _, sysName := range systems {
		for _, t := range threads {
			ro := opt
			ro.System = sysName
			ro.Threads = t
			r, err := RunOne(app, v.Name, ro)
			if err != nil {
				return s, err
			}
			if r.Verify != nil {
				return s, fmt.Errorf("speedup %s: %s@%d failed verification: %w", v.Name, sysName, t, r.Verify)
			}
			s.Wall[sysName] = append(s.Wall[sysName], float64(r.Wall.Nanoseconds()))
			s.ModelSpeedup[sysName] = append(s.ModelSpeedup[sysName], ModelSpeedup(base, r))
		}
	}
	return s, nil
}

// Speedup returns Baseline/Wall for a system at threads index i.
func (s SpeedupSeries) Speedup(sys string, i int) float64 {
	w := s.Wall[sys]
	if i >= len(w) || w[i] == 0 {
		return 0
	}
	return s.Baseline / w[i]
}

// seriesSystems returns the systems measured in s: the paper's six first
// (Figure 1 legend order), then any extra runtimes (e.g. stm-norec) sorted
// by name, so non-paper systems still render in the text output.
func seriesSystems(s SpeedupSeries) []string {
	seen := make(map[string]bool)
	var systems []string
	for _, sys := range TMSystems() {
		if _, ok := s.Wall[sys]; ok {
			systems = append(systems, sys)
			seen[sys] = true
		}
	}
	var extra []string
	for sys := range s.Wall {
		if !seen[sys] {
			extra = append(extra, sys)
		}
	}
	sort.Strings(extra)
	return append(systems, extra...)
}

// WriteFigure1 renders the series as aligned text (one block per variant,
// like one panel of Figure 1). Model speedups are shown in parentheses.
func WriteFigure1(w io.Writer, series []SpeedupSeries) {
	for _, s := range series {
		fmt.Fprintf(w, "== %s (seq baseline %.1f ms)\n", s.Variant, s.Baseline/1e6)
		fmt.Fprintf(w, "%-14s", "cores")
		for _, t := range s.Threads {
			fmt.Fprintf(w, "%16d", t)
		}
		fmt.Fprintln(w)
		for _, sys := range seriesSystems(s) {
			fmt.Fprintf(w, "%-14s", sys)
			for i := range s.Threads {
				fmt.Fprintf(w, "%8.2f (%4.1f)", s.Speedup(sys, i), s.ModelSpeedup[sys][i])
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintln(w)
	}
}

// WriteFigure1CSV renders the series as CSV rows:
// variant,system,threads,wall_ns,speedup,model_speedup.
func WriteFigure1CSV(w io.Writer, series []SpeedupSeries) {
	fmt.Fprintln(w, "variant,system,threads,wall_ns,speedup,model_speedup")
	for _, s := range series {
		for sys, walls := range s.Wall {
			for i, t := range s.Threads {
				fmt.Fprintf(w, "%s,%s,%d,%.0f,%.4f,%.4f\n",
					s.Variant, sys, t, walls[i], s.Speedup(sys, i), s.ModelSpeedup[sys][i])
			}
		}
	}
}

// ModelSpeedup estimates the speedup a hardware implementation of the
// system would achieve, from the measured run. The model is deliberately
// simple and fully documented here:
//
//	perThreadWork = seqWall/threads            (perfect division of real work)
//	barrierCost   = committed barriers × cost(system) / threads
//	wastedWork    = wasted barriers × (seq ns per barrier) / threads
//	modelWall     = perThreadWork + barrierCost + wastedWork
//
// cost(system) reflects who pays for conflict detection in hardware: ~0 ns
// for HTM barriers (cache-transparent), a small constant for hybrids
// (signature insert), larger constants for STM read/write barriers. The
// model keeps the real abort counts and the real sequential work; only the
// bookkeeping overhead of *simulating* hardware in software is discounted.
func ModelSpeedup(base, r Result) float64 {
	if r.Wall <= 0 || base.Wall <= 0 {
		return 0
	}
	var perBarrier float64
	switch {
	case strings.HasPrefix(r.System, "htm"):
		perBarrier = 0
	case strings.HasPrefix(r.System, "hybrid"):
		perBarrier = 4
	default: // stm
		perBarrier = 25
	}
	threads := float64(r.Threads)
	seqNs := float64(base.Wall.Nanoseconds())
	barriers := float64(r.Stats.Total.Loads + r.Stats.Total.Stores)
	// ns of real work a barrier's transaction carries, for costing retries.
	var nsPerBarrier float64
	if barriers > 0 {
		nsPerBarrier = seqNs / barriers
	}
	wasted := float64(r.Stats.Total.Wasted) * nsPerBarrier
	modelWall := seqNs/threads + barriers*perBarrier/threads + wasted/threads
	if modelWall <= 0 {
		return 0
	}
	return seqNs / modelWall
}
