// Command characterize regenerates Table VI (the quantitative transactional
// characterization of the STAMP applications) and, with -qualitative, the
// derived Table III buckets.
//
// Usage:
//
//	characterize [-scale 0.25] [-retry-threads 16] [-variants genome,kmeans-high]
//	             [-systems stm-norec,stm-mv] [-cm greedy] [-clock gv4]
//	             [-qualitative]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/stamp-go/stamp"
	"github.com/stamp-go/stamp/internal/harness"
)

func main() {
	var (
		scale       = flag.Float64("scale", 0.25, "workload scale (1 = the paper's configuration)")
		retry       = flag.Int("retry-threads", 16, "thread count for the retries-per-transaction columns (paper: 16)")
		only        = flag.String("variants", "", "comma-separated variant subset (default: all 20 simulation variants)")
		sysFlag     = flag.String("systems", "", "comma-separated extra retry-column systems beyond the paper's six (see stamp -list-systems)")
		cmFlag      = flag.String("cm", "", "contention-manager policy for the retry-column runs (see stamp -list-cms; default: per-runtime)")
		clockFlag   = flag.String("clock", "", "TL2 commit-clock scheme for the retry-column runs (see stamp -list-clocks; default: gv1)")
		mvVers      = flag.Int("mv-versions", 0, "stm-mv per-stripe version-ring depth (0 = default 8)")
		chaosArg    = flag.String("chaos", "", "arm deterministic failpoints for the retry-column runs: seed:site:prob[,...] (see stamp -list-chaos)")
		timeout     = flag.Duration("timeout", 0, "progress watchdog per run: fail if no commits for this long (0 = off)")
		qualitative = flag.Bool("qualitative", false, "also print the derived Table III buckets")
	)
	flag.Parse()

	cm, err := stamp.ParseCM(*cmFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "characterize:", err)
		os.Exit(2)
	}
	clock, err := stamp.ParseClock(*clockFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "characterize:", err)
		os.Exit(2)
	}
	chaosSpec, err := stamp.ParseChaos(*chaosArg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "characterize:", err)
		os.Exit(2)
	}

	var extraSystems []string
	if *sysFlag != "" {
		parsed, err := stamp.ParseSystems(*sysFlag, false)
		if err != nil {
			fmt.Fprintln(os.Stderr, "characterize:", err)
			os.Exit(2)
		}
		paper := make(map[string]bool)
		for _, name := range stamp.TMSystems() {
			paper[name] = true
		}
		for _, name := range parsed {
			if paper[name] {
				fmt.Fprintf(os.Stderr, "characterize: %s is already a Table VI retry column; -systems is for runtimes beyond the paper's six\n", name)
				os.Exit(2)
			}
			extraSystems = append(extraSystems, name)
		}
	}

	var selected []stamp.Variant
	if *only != "" {
		for _, name := range strings.Split(*only, ",") {
			v, err := stamp.FindVariant(strings.TrimSpace(name))
			if err != nil {
				fmt.Fprintln(os.Stderr, "characterize:", err)
				os.Exit(2)
			}
			selected = append(selected, v)
		}
	} else {
		selected = stamp.SimVariants()
	}

	var rows []stamp.Characterization
	for _, v := range selected {
		fmt.Fprintf(os.Stderr, "characterizing %s (scale %g)...\n", v.Name, *scale)
		c, err := harness.Characterize(v, harness.Options{
			Scale: *scale, RetryThreads: *retry, ExtraRetrySystems: extraSystems,
			CM: cm, Clock: clock, MVVersions: *mvVers,
			Chaos: chaosSpec, ProgressTimeout: *timeout,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "characterize:", err)
			os.Exit(1)
		}
		rows = append(rows, c)
	}
	fmt.Println("Table VI — transactional characterization (proxies per DESIGN.md):")
	harness.WriteTableVI(os.Stdout, rows)
	if *qualitative {
		fmt.Println()
		fmt.Println("Table III — qualitative buckets derived from the measurements:")
		var qs []harness.Qualitative
		for _, c := range rows {
			qs = append(qs, harness.Bucketize(c))
		}
		harness.WriteTableIII(os.Stdout, qs)
	}
}
