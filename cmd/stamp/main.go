// Command stamp runs STAMP variants on TM systems, the equivalent of
// invoking an original benchmark binary linked against a TM library, and
// regenerates the paper's results: Table VI, the Table III buckets derived
// from it, and Figure 1.
//
// Usage:
//
//	stamp -list
//	stamp -list-systems
//	stamp -list-cms
//	stamp -list-causes
//	stamp -list-chaos
//	stamp -variant vacation-low -systems stm-lazy,stm-norec -threads 8 [-scale 1] [-cm greedy]
//	stamp -variant vacation-low -systems stm-lazy -threads 8 -trace 16 -trace-out tx.trace.json
//	stamp -variant vacation-low -systems stm-lazy -threads 8 -chaos 42:tl2-lock-acquire:0.01 -timeout 30s
//	stamp -table 6 [-scale 0.25] [-threads 16] [-variant genome,kmeans-high] [-systems stm-norec] [-cm greedy]
//	stamp -table 3 ...    Table VI, then the Table III buckets derived from it
//	stamp -figure 1 [-scale 0.25] [-threads 1,2,4,8,16] [-variant genome] [-systems stm-lazy,stm-norec] [-csv]
package main

import (
	"cmp"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/stamp-go/stamp"
	"github.com/stamp-go/stamp/internal/harness"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it parses args, writes results to stdout and
// diagnostics to stderr, and returns the exit code (2 for a usage error, 1
// for a failed or unverified run).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("stamp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list     = fs.Bool("list", false, "list all Table IV variants and exit")
		listSys  = fs.Bool("list-systems", false, "list all registered TM systems and exit")
		listCMs  = fs.Bool("list-cms", false, "list all registered contention-manager policies and exit")
		listCaus = fs.Bool("list-causes", false, "list the abort-cause taxonomy and exit")
		listChs  = fs.Bool("list-chaos", false, "list all registered fault-injection failpoints and exit")
		variant  = fs.String("variant", "", "variant name (see -list); with -table or -figure a comma list (default: the 20 simulation variants)")
		sysNames = fs.String("systems", "", "comma-separated TM systems (see -list-systems; default stm-lazy); with -table the retry columns beyond the paper's six, with -figure the swept systems (default: the paper's six)")
		threads  = fs.String("threads", "", "worker threads (default 4); with -table the retry columns' thread count (default 16), with -figure a comma list (default 1,2,4,8,16)")
		scale    = fs.Float64("scale", 0, "workload scale, 1 = the paper's configuration (default 1; 0.25 with -table or -figure)")
		cmFlag   = fs.String("cm", "", "contention-manager policy for every TM run (see -list-cms; default: per-runtime)")
		traceN   = fs.Int("trace", 0, "sample every Nth atomic block into the event tracer (0 = off)")
		traceOut = fs.String("trace-out", "", "write sampled events as Chrome trace-event JSON (Perfetto-loadable); implies -trace 1 if -trace is unset")
		chaosArg = fs.String("chaos", "", "arm deterministic failpoints in every TM run: seed:site:prob[,site:prob...] (see -list-chaos)")
		timeout  = fs.Duration("timeout", 0, "progress watchdog per run: fail (with diagnostics) if no transaction commits for this long (0 = off)")
		table    = fs.Int("table", 0, "print Table VI (6), or Table VI and the Table III buckets derived from it (3)")
		figure   = fs.Int("figure", 0, "print Figure 1 (1): speedup over sequential execution across -threads")
		csv      = fs.Bool("csv", false, "with -figure, emit CSV instead of aligned text")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	switch {
	case *list:
		fmt.Fprintf(stdout, "%-18s %-10s %s\n", "VARIANT", "APP", "TABLE IV ARGS")
		for _, v := range stamp.Variants() {
			fmt.Fprintf(stdout, "%-18s %-10s %s\n", v.Name, v.App, v.Args)
		}
	case *listSys:
		fmt.Fprintln(stdout, strings.Join(stamp.Systems(), "\n"))
	case *listCMs:
		for _, name := range stamp.CMNames() {
			fmt.Fprintf(stdout, "%-10s %s\n", name, stamp.CMDescription(name))
		}
	case *listCaus:
		fmt.Fprintln(stdout, strings.Join(stamp.CauseNames(), "\n"))
	case *listChs:
		for _, site := range stamp.ChaosSites() {
			fmt.Fprintf(stdout, "%-18s %-14s %s\n", site.Name, site.Kind, site.Description)
		}
	}
	if *list || *listSys || *listCMs || *listCaus || *listChs {
		return 0
	}

	usage := func(err error) int {
		fmt.Fprintln(stderr, "stamp:", err)
		return 2
	}
	paper := *table != 0 || *figure != 0
	switch {
	case *table != 0 && *table != 6 && *table != 3:
		return usage(fmt.Errorf("-table takes 6 or 3, got %d", *table))
	case *figure != 0 && *figure != 1:
		return usage(fmt.Errorf("-figure takes 1, got %d", *figure))
	case *table != 0 && *figure != 0:
		return usage(errors.New("-table and -figure are separate modes"))
	case *csv && *figure == 0:
		return usage(errors.New("-csv applies to -figure only"))
	case paper && (*traceN != 0 || *traceOut != ""):
		return usage(errors.New("-trace and -trace-out apply to single-variant runs only"))
	}
	cm, err := stamp.ParseCM(*cmFlag)
	if err != nil {
		return usage(err)
	}
	chaosSpec, err := stamp.ParseChaos(*chaosArg)
	if err != nil {
		return usage(err)
	}
	opt := stamp.Options{Scale: *scale, CM: cm, Chaos: chaosSpec, ProgressTimeout: *timeout}
	var systems []string
	switch {
	case *sysNames != "":
		// seq is every table's and panel's baseline; sweeping it at several
		// threads would corrupt the workload, so only single runs take it.
		if systems, err = stamp.ParseSystems(*sysNames, !paper); err != nil {
			return usage(err)
		}
	case !paper:
		systems = []string{"stm-lazy"}
	}
	var ts []int // nil when unset: each mode's default
	if *threads != "" {
		for _, f := range strings.Split(*threads, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || n < 1 {
				return usage(fmt.Errorf("bad -threads value %q", f))
			}
			ts = append(ts, n)
		}
	}
	if len(ts) > 1 && *figure == 0 {
		return usage(fmt.Errorf("-threads takes one count without -figure, got %q", *threads))
	}
	one := append(ts, 0)[0] // the one count outside -figure, 0 when unset

	if !paper {
		if *variant == "" {
			return usage(errors.New("-variant is required (use -list to enumerate)"))
		}
		opt.Threads, opt.Trace = cmp.Or(one, 4), *traceN
		if *traceOut != "" && opt.Trace == 0 {
			opt.Trace = 1
		}
		return runSystems(*variant, systems, opt, *traceOut, stdout, stderr)
	}
	if opt.Scale == 0 {
		opt.Scale = 0.25
	}
	variants := stamp.SimVariants()
	if *variant != "" {
		variants = nil
		for _, name := range strings.Split(*variant, ",") {
			v, err := stamp.FindVariant(strings.TrimSpace(name))
			if err != nil {
				return usage(err)
			}
			variants = append(variants, v)
		}
	}
	if *figure != 0 {
		// The harness's defaults are the paper's: its six systems, 1..16.
		opt.Systems, opt.ThreadCounts = systems, ts
		series, err := each(variants, "measuring", opt.Scale, stderr, func(v stamp.Variant) (stamp.SpeedupSeries, error) {
			return harness.MeasureSpeedup(v, opt)
		})
		if err != nil {
			return 1
		}
		if *csv {
			harness.WriteFigure1CSV(stdout, series)
			return 0
		}
		fmt.Fprintln(stdout, "Figure 1 — speedup over sequential (wall clock, cycle-model estimate in parentheses):")
		harness.WriteFigure1(stdout, series)
		return 0
	}

	for _, name := range systems {
		if slices.Contains(stamp.TMSystems(), name) {
			return usage(fmt.Errorf("%s is already a Table VI retry column; -systems is for runtimes beyond the paper's six", name))
		}
	}
	// RetryThreads 0 is the paper's 16.
	opt.RetryThreads, opt.ExtraRetrySystems = one, systems
	rows, err := each(variants, "characterizing", opt.Scale, stderr, func(v stamp.Variant) (stamp.Characterization, error) {
		return harness.Characterize(v, opt)
	})
	if err != nil {
		return 1
	}
	fmt.Fprintln(stdout, "Table VI — transactional characterization (instruction proxies: see README, Reproducing the paper):")
	harness.WriteTableVI(stdout, rows)
	if *table == 3 {
		fmt.Fprintln(stdout)
		fmt.Fprintln(stdout, "Table III — qualitative buckets derived from the measurements:")
		qs := make([]harness.Qualitative, len(rows))
		for i, c := range rows {
			qs[i] = harness.Bucketize(c)
		}
		harness.WriteTableIII(stdout, qs)
	}
	return 0
}

// each measures every variant in turn with f, noting progress on stderr,
// and stops at the first error, which it reports there too.
func each[T any](variants []stamp.Variant, doing string, scale float64, stderr io.Writer, f func(stamp.Variant) (T, error)) ([]T, error) {
	var out []T
	for _, v := range variants {
		fmt.Fprintf(stderr, "%s %s (scale %g)...\n", doing, v.Name, scale)
		r, err := f(v)
		if err != nil {
			fmt.Fprintln(stderr, "stamp:", err)
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// runSystems runs one variant on each system in turn and prints each run's
// report; seq always runs on one thread.
func runSystems(variant string, systems []string, opt stamp.Options, traceOut string, stdout, stderr io.Writer) int {
	code := 0
	for i, sysName := range systems {
		if i > 0 {
			fmt.Fprintln(stdout)
		}
		ro := opt
		ro.System = sysName
		if sysName == "seq" {
			ro.Threads = 1 // seq has no concurrency control; >1 thread corrupts the run
		}
		res, err := stamp.Run(variant, ro)
		if err != nil {
			fmt.Fprintln(stderr, "stamp:", err)
			return 1
		}
		printRun(stdout, res)
		if traceOut != "" {
			if err := writeTrace(stdout, traceOut, sysName, len(systems) > 1, res); err != nil {
				fmt.Fprintln(stderr, "stamp:", err)
				return 1
			}
		}
		if res.Verify != nil {
			fmt.Fprintf(stdout, "VERIFY       FAILED: %v\n", res.Verify)
			code = 1
		} else {
			fmt.Fprintf(stdout, "verify       ok\n")
		}
	}
	return code
}

// printRun renders one run's report: its configuration, totals, abort
// causes, per-block table and conflict heatmap.
func printRun(w io.Writer, res stamp.Result) {
	cmName := res.CM
	if cmName == "" {
		cmName = "default"
	}
	tot := res.Stats.Total
	fmt.Fprintf(w, "variant      %s\n", res.Variant)
	fmt.Fprintf(w, "system       %s\n", res.System)
	fmt.Fprintf(w, "threads      %d\n", res.Threads)
	fmt.Fprintf(w, "cm           %s (%d waits, %v waiting)\n",
		cmName, tot.CMWaits, time.Duration(tot.CMWaitNs).Round(time.Microsecond))
	if tot.Escalations > 0 {
		fmt.Fprintf(w, "escalations  %d (%d committed irrevocably)\n", tot.Escalations, tot.EscalatedCommits)
	}
	fmt.Fprintf(w, "wall time    %v\n", res.Wall)
	fmt.Fprintf(w, "transactions %d\n", tot.Commits)
	fmt.Fprintf(w, "aborts       %d (%.3f retries/tx)\n", tot.Aborts, res.RetriesPerTx())
	fmt.Fprintf(w, "barriers     %d loads, %d stores (%d wasted in aborted attempts)\n",
		tot.Loads, tot.Stores, tot.Wasted)
	fmt.Fprintf(w, "tx time      %.1f%% of thread time\n", res.TxTimeFraction()*100)
	causes := res.Stats.AbortCauses()
	if line := formatCauses(causes[:]); line != "" {
		fmt.Fprintf(w, "abort causes %s\n", line)
	}
	printBlocks(w, res.Stats)
	printConflicts(w, res.Stats)
}

// printBlocks renders the per-block breakdown (the paper's per-region view:
// which atomic call sites commit, abort, and how big their sets are), with
// the abort-cause mix per call site. Runs whose app predates block
// annotation print nothing extra.
func printBlocks(w io.Writer, st stamp.Stats) {
	rows := st.Blocks()
	if len(rows) == 0 {
		return
	}
	fmt.Fprintf(w, "per block    %-28s %10s %9s %8s %8s  %s\n",
		"BLOCK", "COMMITS", "ABORTS", "LOADS/TX", "STORES/TX", "ABORT CAUSES")
	for _, row := range rows {
		causes := formatCauses(row.Causes[:])
		if causes == "" {
			causes = "-"
		}
		fmt.Fprintf(w, "             %-28s %10d %9d %8.1f %8.1f  %s\n",
			row.Name, row.Commits, row.Aborts, row.MeanLoads(), row.MeanStores(), causes)
	}
}

// printConflicts renders the conflict heatmap: the hottest contended
// locations (addresses, lock-table stripes, or cache lines) with their
// abort counts, the majority-blamed enemy block, and the cause mix.
func printConflicts(w io.Writer, st stamp.Stats) {
	rows := st.TopConflicts()
	if len(rows) == 0 {
		return
	}
	const maxRows = 8
	if len(rows) > maxRows {
		rows = rows[:maxRows]
	}
	fmt.Fprintf(w, "top conflicts %-16s %8s %-24s %s\n", "LOCATION", "ABORTS", "BLAMED BLOCK", "CAUSES")
	for _, row := range rows {
		blame := "-"
		if row.Blame != 0 {
			if name := stamp.BlockName(stamp.BlockID(row.Blame)); name != "" {
				blame = name
			}
		}
		fmt.Fprintf(w, "              %-16s %8d %-24s %s\n",
			row.Key.String(), row.Count, blame, formatCauses(row.Causes[:]))
	}
}

// formatCauses renders non-zero per-cause counters as "name N, ...",
// largest first (empty when all are zero). The slice is indexed by
// stamp.AbortCause, matching stamp.CauseNames.
func formatCauses(counts []uint64) string {
	names := stamp.CauseNames()
	order := make([]int, 0, len(counts))
	for c, n := range counts {
		if n != 0 {
			order = append(order, c)
		}
	}
	sort.Slice(order, func(i, j int) bool {
		if counts[order[i]] != counts[order[j]] {
			return counts[order[i]] > counts[order[j]]
		}
		return order[i] < order[j]
	})
	parts := make([]string, len(order))
	for i, c := range order {
		parts[i] = fmt.Sprintf("%s %d", names[c], counts[c])
	}
	return strings.Join(parts, ", ")
}

// writeTrace dumps a run's sampled events as Chrome trace-event JSON. With
// several systems in one invocation each system gets its own file (the
// system name is spliced in before the extension).
func writeTrace(w io.Writer, path, sysName string, multi bool, res stamp.Result) error {
	if multi {
		ext := filepath.Ext(path)
		path = strings.TrimSuffix(path, ext) + "." + sysName + ext
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := stamp.WriteChromeTrace(f, res.Trace); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(w, "trace        %d events -> %s\n", len(res.Trace), path)
	return nil
}
