// Command speedup regenerates Figure 1: speedup over sequential execution
// for every TM system across thread counts, per variant.
//
// Usage:
//
//	speedup [-scale 0.25] [-threads 1,2,4,8,16] [-variants genome,intruder]
//	        [-systems stm-lazy,stm-norec] [-cm greedy] [-csv]
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"github.com/stamp-go/stamp"
	"github.com/stamp-go/stamp/internal/harness"
)

func main() {
	var (
		scale    = flag.Float64("scale", 0.25, "workload scale (1 = the paper's configuration)")
		threads  = flag.String("threads", "1,2,4,8,16", "comma-separated thread counts")
		only     = flag.String("variants", "", "comma-separated variant subset (default: all 20 simulation variants)")
		sysFlag  = flag.String("systems", "", "comma-separated TM systems (default: the paper's six; see stamp -list-systems)")
		cmFlag   = flag.String("cm", "", "contention-manager policy for every TM run (see stamp -list-cms; default: per-runtime)")
		chaosArg = flag.String("chaos", "", "arm deterministic failpoints for every TM run: seed:site:prob[,...] (see stamp -list-chaos)")
		timeout  = flag.Duration("timeout", 0, "progress watchdog per run: fail if no commits for this long (0 = off)")
		csv      = flag.Bool("csv", false, "emit CSV instead of aligned text")
	)
	flag.Parse()

	cm, err := stamp.ParseCM(*cmFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "speedup:", err)
		os.Exit(2)
	}
	chaosSpec, err := stamp.ParseChaos(*chaosArg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "speedup:", err)
		os.Exit(2)
	}

	var systems []string
	if *sysFlag != "" {
		var err error
		// seq is already the baseline of every panel; sweeping it at
		// multiple threads would corrupt the workload, so reject it.
		systems, err = stamp.ParseSystems(*sysFlag, false)
		if err != nil {
			fmt.Fprintln(os.Stderr, "speedup:", err)
			os.Exit(2)
		}
	}

	var ts []int
	for _, s := range strings.Split(*threads, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n < 1 {
			fmt.Fprintln(os.Stderr, "speedup: bad -threads value:", s)
			os.Exit(2)
		}
		ts = append(ts, n)
	}
	var selected []stamp.Variant
	if *only != "" {
		for _, name := range strings.Split(*only, ",") {
			v, err := stamp.FindVariant(strings.TrimSpace(name))
			if err != nil {
				fmt.Fprintln(os.Stderr, "speedup:", err)
				os.Exit(2)
			}
			selected = append(selected, v)
		}
	} else {
		selected = stamp.SimVariants()
	}

	var series []stamp.SpeedupSeries
	for _, v := range selected {
		fmt.Fprintf(os.Stderr, "measuring %s (scale %g)...\n", v.Name, *scale)
		s, err := harness.MeasureSpeedup(v, harness.Options{
			Scale: *scale, ThreadCounts: ts, Systems: systems,
			CM: cm, Chaos: chaosSpec, ProgressTimeout: *timeout,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "speedup:", err)
			os.Exit(1)
		}
		series = append(series, s)
	}
	if *csv {
		harness.WriteFigure1CSV(os.Stdout, series)
		return
	}
	fmt.Println("Figure 1 — speedup over sequential (wall clock, cycle-model estimate in parentheses):")
	harness.WriteFigure1(os.Stdout, series)
}
