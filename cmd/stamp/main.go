// Command stamp runs one STAMP variant on one or more TM systems, the
// equivalent of invoking an original benchmark binary linked against a TM
// library.
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
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"github.com/stamp-go/stamp"
)

func main() {
	var (
		list     = flag.Bool("list", false, "list all Table IV variants and exit")
		listSys  = flag.Bool("list-systems", false, "list all registered TM systems and exit")
		listCMs  = flag.Bool("list-cms", false, "list all registered contention-manager policies and exit")
		listCaus = flag.Bool("list-causes", false, "list the abort-cause taxonomy and exit")
		variant  = flag.String("variant", "", "variant name (see -list)")
		sysNames = flag.String("systems", "stm-lazy", "comma-separated TM systems (see -list-systems)")
		threads  = flag.Int("threads", 4, "worker threads")
		scale    = flag.Float64("scale", 1.0, "workload scale (1 = the paper's configuration)")
		cmFlag   = flag.String("cm", "", "contention-manager policy (see -list-cms; default: per-runtime)")
		traceN   = flag.Int("trace", 0, "sample every Nth atomic block into the event tracer (0 = off)")
		traceOut = flag.String("trace-out", "", "write sampled events as Chrome trace-event JSON (Perfetto-loadable); implies -trace 1 if -trace is unset")
		chaosArg = flag.String("chaos", "", "arm deterministic failpoints: seed:site:prob[,site:prob...] (see -list-chaos)")
		listChs  = flag.Bool("list-chaos", false, "list all registered fault-injection failpoints and exit")
		timeout  = flag.Duration("timeout", 0, "progress watchdog: fail (with diagnostics) if no transaction commits for this long (0 = off)")
	)
	flag.Parse()
	if *traceOut != "" && *traceN == 0 {
		*traceN = 1
	}

	if *list {
		fmt.Printf("%-18s %-10s %s\n", "VARIANT", "APP", "TABLE IV ARGS")
		for _, v := range stamp.Variants() {
			fmt.Printf("%-18s %-10s %s\n", v.Name, v.App, v.Args)
		}
		return
	}
	if *listSys {
		for _, name := range stamp.Systems() {
			fmt.Println(name)
		}
		return
	}
	if *listCMs {
		for _, name := range stamp.CMNames() {
			fmt.Printf("%-10s %s\n", name, stamp.CMDescription(name))
		}
		return
	}
	if *listCaus {
		for _, name := range stamp.CauseNames() {
			fmt.Println(name)
		}
		return
	}
	if *listChs {
		for _, site := range stamp.ChaosSites() {
			fmt.Printf("%-18s %-14s %s\n", site.Name, site.Kind, site.Description)
		}
		return
	}
	if *variant == "" {
		fmt.Fprintln(os.Stderr, "stamp: -variant is required (use -list to enumerate)")
		os.Exit(2)
	}
	systems, err := stamp.ParseSystems(*sysNames, true)
	if err != nil {
		fmt.Fprintln(os.Stderr, "stamp:", err)
		os.Exit(2)
	}
	cm, err := stamp.ParseCM(*cmFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "stamp:", err)
		os.Exit(2)
	}
	chaosSpec, err := stamp.ParseChaos(*chaosArg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "stamp:", err)
		os.Exit(2)
	}

	failed := false
	for i, sysName := range systems {
		if i > 0 {
			fmt.Println()
		}
		n := *threads
		if sysName == "seq" {
			n = 1 // seq has no concurrency control; >1 thread corrupts the run
		}
		res, err := stamp.Run(*variant, stamp.Options{
			System: sysName, Threads: n, Scale: *scale,
			CM: cm, Trace: *traceN,
			Chaos: chaosSpec, ProgressTimeout: *timeout})
		if err != nil {
			fmt.Fprintln(os.Stderr, "stamp:", err)
			os.Exit(1)
		}
		cmName := res.CM
		if cmName == "" {
			cmName = "default"
		}
		fmt.Printf("variant      %s\n", res.Variant)
		fmt.Printf("system       %s\n", res.System)
		fmt.Printf("threads      %d\n", res.Threads)
		fmt.Printf("cm           %s (%d waits, %v waiting)\n",
			cmName, res.Stats.Total.CMWaits,
			time.Duration(res.Stats.Total.CMWaitNs).Round(time.Microsecond))
		if e := res.Stats.Total.Escalations; e > 0 {
			fmt.Printf("escalations  %d (%d committed irrevocably)\n",
				e, res.Stats.Total.EscalatedCommits)
		}
		fmt.Printf("wall time    %v\n", res.Wall)
		fmt.Printf("transactions %d\n", res.Stats.Total.Commits)
		fmt.Printf("aborts       %d (%.3f retries/tx)\n", res.Stats.Total.Aborts, res.RetriesPerTx())
		fmt.Printf("barriers     %d loads, %d stores (%d wasted in aborted attempts)\n",
			res.Stats.Total.Loads, res.Stats.Total.Stores, res.Stats.Total.Wasted)
		fmt.Printf("tx time      %.1f%% of thread time\n", res.TxTimeFraction()*100)
		printCauses(res.Stats)
		printBlocks(res.Stats)
		printConflicts(res.Stats)
		if *traceOut != "" {
			if err := writeTrace(*traceOut, sysName, len(systems) > 1, res); err != nil {
				fmt.Fprintln(os.Stderr, "stamp:", err)
				os.Exit(1)
			}
		}
		if res.Verify != nil {
			fmt.Printf("VERIFY       FAILED: %v\n", res.Verify)
			failed = true
			continue
		}
		fmt.Printf("verify       ok\n")
	}
	if failed {
		os.Exit(1)
	}
}

// printCauses renders the run's abort breakdown by taxonomy cause, largest
// bucket first. Runs with no aborts print nothing.
func printCauses(st stamp.Stats) {
	counts := st.AbortCauses()
	if line := formatCauses(counts[:]); line != "" {
		fmt.Printf("abort causes %s\n", line)
	}
}

// printBlocks renders the per-block breakdown (the paper's per-region view:
// which atomic call sites commit, abort, and how big their sets are), with
// the abort-cause mix per call site. Runs whose app predates block
// annotation print nothing extra.
func printBlocks(st stamp.Stats) {
	rows := st.Blocks()
	if len(rows) == 0 {
		return
	}
	fmt.Printf("per block    %-28s %10s %9s %8s %8s  %s\n",
		"BLOCK", "COMMITS", "ABORTS", "LOADS/TX", "STORES/TX", "ABORT CAUSES")
	for _, row := range rows {
		causes := formatCauses(row.Causes[:])
		if causes == "" {
			causes = "-"
		}
		fmt.Printf("             %-28s %10d %9d %8.1f %8.1f  %s\n",
			row.Name, row.Commits, row.Aborts, row.MeanLoads(), row.MeanStores(), causes)
	}
}

// printConflicts renders the conflict heatmap: the hottest contended
// locations (addresses, lock-table stripes, or cache lines) with their
// abort counts, the majority-blamed enemy block, and the cause mix.
func printConflicts(st stamp.Stats) {
	rows := st.TopConflicts()
	if len(rows) == 0 {
		return
	}
	const maxRows = 8
	if len(rows) > maxRows {
		rows = rows[:maxRows]
	}
	fmt.Printf("top conflicts %-16s %8s %-24s %s\n", "LOCATION", "ABORTS", "BLAMED BLOCK", "CAUSES")
	for _, row := range rows {
		blame := "-"
		if row.Blame != 0 {
			if name := stamp.BlockName(stamp.BlockID(row.Blame)); name != "" {
				blame = name
			}
		}
		fmt.Printf("              %-16s %8d %-24s %s\n",
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
func writeTrace(path, sysName string, multi bool, res stamp.Result) error {
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
	fmt.Printf("trace        %d events -> %s\n", len(res.Trace), path)
	return nil
}
