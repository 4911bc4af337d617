// Command bench is the repository's one benchmark: two mini-Figure-1 batch
// sweeps (tx-short, tx-long) and two closed-loop stampd serving mixes
// (serve-read, serve-write), every layer measured from outside through its
// public functions. See README.md for the layer ↔ metric ↔ workload table.
//
//	go run -C bench . --workload tx-short --seed 1 --seconds 30 --trace 0
//	go run -C bench . --workload tx-short --trace 1     # per-layer metrics + out/trace-tx-short.json
//	go run -C bench . --compare A.jsonl B.jsonl         # A/B table against the BENCHMARK.json bounds
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. ../BENCHMARK.json is the metric
// registry: it names every metric with its unit; the program refuses to
// finish if what it measured and what the file lists differ.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// manifestPath is the metric registry, relative to bench/, where go run -C
// and go test both run the program.
const manifestPath = "../BENCHMARK.json"

// options is one invocation's configuration.
type options struct {
	workload string
	seed     uint64
	seconds  float64   // the run's budget, counted from start
	start    time.Time // when run was entered
	trace    bool
	smoke    bool // tiny sizes for the tier-1 smoke test
}

// workloads maps the fixed workload names to their drivers.
var workloads = map[string]func(options, *recorder, *tracer){
	"tx-short":    func(o options, r *recorder, t *tracer) { runBatch(o, r, t, txShort) },
	"tx-long":     func(o options, r *recorder, t *tracer) { runBatch(o, r, t, txLong) },
	"serve-read":  func(o options, r *recorder, t *tracer) { runServe(o, r, t, serveRead) },
	"serve-write": func(o options, r *recorder, t *tracer) { runServe(o, r, t, serveWrite) },
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	opt := options{start: time.Now()}
	fs.StringVar(&opt.workload, "workload", "", "tx-short | tx-long | serve-read | serve-write")
	fs.Uint64Var(&opt.seed, "seed", 1, "seeds every input generator")
	fs.Float64Var(&opt.seconds, "seconds", 30, "the run's time budget")
	traceArg := fs.String("trace", "0", "1 = traced run: per-layer metrics, micro-probes, out/trace-<workload>.json")
	fs.BoolVar(&opt.smoke, "smoke", false, "tiny sizes (tier-1 smoke test)")
	out := fs.String("out", "", "append this run's result record to the file (input of --compare)")
	compare := fs.Bool("compare", false, "compare two result files: --compare A B")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	man, err := loadManifest(manifestPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if *compare {
		return compareFiles(fs.Args(), man, stdout, stderr)
	}
	switch *traceArg {
	case "0", "false":
	case "1", "true":
		opt.trace = true
	default:
		fmt.Fprintf(stderr, "bench: --trace takes 0 or 1, got %q\n", *traceArg)
		return 2
	}
	drive, ok := workloads[opt.workload]
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown --workload %q (known: %s)\n", opt.workload, strings.Join(man.workloadNames(), ", "))
		return 2
	}
	if runtime.NumCPU() < 2 {
		fmt.Fprintf(stderr, "bench: %d CPU: every cell runs 2 threads, refusing to measure on fewer than 2\n", runtime.NumCPU())
		return 2
	}
	env := hostEnv()
	fmt.Fprintf(stdout, "bench: workload=%s seed=%d seconds=%g trace=%v smoke=%v\n", opt.workload, opt.seed, opt.seconds, opt.trace, opt.smoke)
	fmt.Fprintf(stdout, "bench: nproc=%d GOMAXPROCS=%d %s cpu=%q\n", env.NProc, env.GoMaxProcs, env.GoVersion, env.CPU)

	rec := newRecorder(stdout)
	var tr *tracer
	if opt.trace {
		tr = newTracer()
	}
	drive(opt, rec, tr)
	if opt.trace {
		runProbes(opt, rec)
		if err := tr.write(opt); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}

	res, err := rec.result(man, opt.trace)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	for _, name := range res.order {
		m := res.Metrics[name]
		fmt.Fprintf(stdout, "%-44s %14.6g %-6s n=%d\n", name, m.Value, m.Unit, rec.samples[name])
	}
	if *out != "" {
		if err := appendRecord(*out, record{Workload: opt.workload, Seed: opt.seed, Trace: opt.trace, Env: env,
			Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: res.Metrics}); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's last-line object.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	order []string // manifest order, for the human-readable listing
}

// recorder collects the run's metric values, operation counts and failures.
// Only the driver goroutine touches it.
type recorder struct {
	log       io.Writer
	values    map[string]float64
	samples   map[string]int
	attempted int
	failed    int
}

func newRecorder(log io.Writer) *recorder {
	return &recorder{log: log, values: map[string]float64{}, samples: map[string]int{}}
}

// set records a metric value computed from n samples.
func (r *recorder) set(name string, v float64, n int) {
	r.values[name] = v
	r.samples[name] = n
}

// fail counts n failed operations and prints where they happened.
func (r *recorder) fail(n int, where string, err error) {
	r.failed += n
	fmt.Fprintf(r.log, "FAILED %s: %d operation(s): %v\n", where, n, err)
}

// result checks the recorded names against the manifest and builds the
// output. An end-to-end metric must have been measured and be positive. A
// per-layer metric whose layer this workload does not exercise reads 0: the
// contract wants every listed name on every traced run.
func (r *recorder) result(man manifest, traced bool) (result, error) {
	specs := man.EndToEnd
	if traced {
		specs = man.PerLayer
	}
	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: min(r.failed, r.attempted), Metrics: map[string]metric{}}
	listed := map[string]bool{}
	for _, s := range specs {
		listed[s.Name] = true
		v, ok := r.values[s.Name]
		if !traced && (!ok || !(v > 0)) {
			return res, fmt.Errorf("end-to-end metric %s was not measured (value %v)", s.Name, v)
		}
		res.Metrics[s.Name] = metric{Value: v, Unit: s.Unit}
		res.order = append(res.order, s.Name)
	}
	var stray []string
	for name := range r.values {
		if !listed[name] {
			stray = append(stray, name)
		}
	}
	if len(stray) > 0 {
		sort.Strings(stray)
		return res, fmt.Errorf("measured metrics missing from the manifest: %s", strings.Join(stray, ", "))
	}
	if res.Attempted < 1 {
		return res, fmt.Errorf("no operation attempted")
	}
	return res, nil
}

// hostInfo is recorded with every result: numbers from different hosts are
// not comparable.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu"`
}

func hostEnv() hostInfo {
	h := hostInfo{NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), CPU: "unknown"}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// residentMiB reads the process's resident set (VmRSS). The workloads read
// it where a repetition's memory is at its largest, when the timed region
// ends and before anything is collected, and report the median over
// repetitions. The process's high-water mark (VmHWM) is not used: it jumps by
// a whole arena, once, in the runs where the runtime's background scavenger
// had not yet released the previous repetition's arena when the next one was
// cleared (README.md, "Steadiness").
func residentMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(rest), "%f", &kb)
			return kb / 1024
		}
	}
	return 0
}

// probeSeconds is the part of a traced run's --seconds left to the
// micro-probes, which take about eight seconds on the reference host.
const probeSeconds = 9

// rounds is the repetition protocol of every workload: round 0 is the
// discarded warm-up, then at least minRounds timed rounds and as many more as
// end before --seconds have passed since the run started, so that input
// generation and the warm-up count against the budget too. A traced run
// leaves probeSeconds of it (at most half) to the micro-probes. The caller
// decides from the round's number what kind of round it is.
func rounds(opt options, minRounds int, do func(round int)) {
	seconds := opt.seconds
	if opt.trace {
		seconds = max(seconds/2, seconds-probeSeconds)
	}
	do(0)
	for clock := newBudget(opt.start, seconds, minRounds); clock.more(); {
		do(clock.rounds)
	}
}

// budget is the repetition loop's clock: at least min rounds, then as many
// as end within limit of start, judging by the longest round so far.
type budget struct {
	start   time.Time
	limit   time.Duration
	min     int
	rounds  int
	longest time.Duration
	last    time.Time
}

func newBudget(start time.Time, seconds float64, min int) *budget {
	return &budget{start: start, last: time.Now(), limit: time.Duration(seconds * float64(time.Second)), min: min}
}

// more reports whether another round should run; call it once per round.
func (b *budget) more() bool {
	now := time.Now()
	if b.rounds > 0 {
		if d := now.Sub(b.last); d > b.longest {
			b.longest = d
		}
	}
	b.last = now
	ok := b.rounds < b.min || now.Sub(b.start)+b.longest <= b.limit
	if ok {
		b.rounds++
	}
	return ok
}
