// Command stampd runs the STAMP vacation workload as a long-lived service:
// a persistent transactional arena served on a fixed set of leased
// transaction slots (a bounded number of requests park for one when all are
// busy), with open-loop load generation and tail-latency reporting — the
// serving-mode counterpart of the batch `stamp` command.
//
// Usage:
//
//	stampd -bench [-system NAME] [-systems stm-norec,stm-lazy] [-workers 8] \
//	       [-clients 4,16] [-rate 20000] [-duration 2s] [-ro 0,50] \
//	       [-user 90] [-queries 4] [-qrange 60]
//	stampd -listen :8080 [-system NAME] [-workers 8] [-timeout 2s]
//
// Bench mode prints one human-readable report per (system × clients ×
// ro-mix) cell plus `go test -bench`-formatted result lines
// (BenchmarkStampd/...) whose ns/op is the mean client-observed latency,
// with p50-ns/p99-ns/p999-ns and req/s as extra metrics — pipe through
// `benchjson` to record or compare. -systems sweeps several runtimes in one
// invocation (each cell gets a fresh server); it overrides -system.
//
// Listen mode serves the operations over HTTP with JSON bodies
// (POST /reserve /cancel /update /query, GET /stats /healthz); admission
// rejections answer 503, a stalled pool answers 500 everywhere.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/stamp-go/stamp"
)

func main() {
	var (
		bench   = flag.Bool("bench", false, "run the built-in load generator and report latency percentiles")
		listen  = flag.String("listen", "", "serve the operations over HTTP on this address (e.g. :8080)")
		system  = flag.String("system", "", "TM runtime the slots run on (default: the server's, see stamp.ServerOptions.System)")
		systems = flag.String("systems", "", "comma-separated TM runtimes to sweep in bench mode (overrides -system)")
		workers = flag.Int("workers", runtime.GOMAXPROCS(0), "TM thread slots = most transactions at once (max 64); requests run on their caller's goroutine while a slot is free")
		queueN  = flag.Int("queue", 0, "most requests parked for a slot (0 = 4×workers); with every slot busy and this many parked, requests are rejected, not buffered")
		records = flag.Int("records", 16384, "rows per reservation table (vacation -r)")
		budget  = flag.Int("op-budget", 0, "arena slack in operations the server can absorb (0 = 1<<18)")

		clients  = flag.String("clients", "4", "comma-separated client counts; each count is one bench cell")
		rate     = flag.Float64("rate", 0, "total open-loop arrival rate in req/s across clients (0 = closed loop)")
		duration = flag.Duration("duration", time.Second, "bench run length per cell")
		user     = flag.Int("user", 90, "percentage of read-write requests that are reservations (vacation -u)")
		ro       = flag.String("ro", "0", "comma-separated read-only query percentages; each is one bench cell")
		queries  = flag.Int("queries", 4, "items touched per request (vacation -n)")
		qrange   = flag.Int("qrange", 60, "percentage of records requests span (vacation -q)")
		seed     = flag.Uint64("seed", 1, "workload and store seed")

		cmFlag  = flag.String("cm", "", "contention-manager policy (default: per-runtime)")
		chaos   = flag.String("chaos", "", "deterministic failpoints: seed:site:prob[,site:prob...]")
		mvVers  = flag.Int("mv-versions", 0, "stm-mv per-stripe version-ring depth (0 = default)")
		timeout = flag.Duration("timeout", 0, "progress watchdog: halt the runtime and fail pending requests if commits stall this long with work in flight (0 = off)")

		swapAt    = flag.Float64("swap-at", 0, "arena high-water fraction that triggers an epoch swap (0 = 0.85)")
		deadline  = flag.Duration("deadline", 0, "per-request deadline from admission to completion (0 = none)")
		retries   = flag.Int("retries", 0, "retry budget for requests that hit arena exhaustion, one epoch swap per retry (0 = 3)")
		noRecycle = flag.Bool("no-recycle", false, "disable the transactional free lists (every tx.Free leaks, as in the original tmalloc) — the ablation baseline")
	)
	flag.Parse()
	if *workers > 64 {
		*workers = 64 // the runtime's reader-mask width caps thread slots
	}

	cm, err := stamp.ParseCM(*cmFlag)
	fatal(err)
	chaosSpec, err := stamp.ParseChaos(*chaos)
	fatal(err)

	opts := stamp.ServerOptions{
		System: *system, Workers: *workers, Queue: *queueN,
		Records: *records, OpBudget: *budget,
		CM: cm, Chaos: chaosSpec, MVVersions: *mvVers,
		SwapAt: *swapAt, RequestDeadline: *deadline, RequestRetries: *retries,
		NoRecycle:       *noRecycle,
		ProgressTimeout: *timeout, Seed: *seed,
	}
	sweep := []string{*system}
	if *systems != "" {
		var err error
		sweep, err = stamp.ParseSystems(*systems, false)
		fatal(err)
	}

	switch {
	case *bench:
		runBench(opts, benchConfig{
			systems: sweep,
			clients: parseInts(*clients, "-clients"),
			roPcts:  parseInts(*ro, "-ro"),
			rate:    *rate, duration: *duration,
			user: *user, queries: *queries, qrange: *qrange, seed: *seed,
		})
	case *listen != "":
		runListen(opts, *listen)
	default:
		fmt.Fprintln(os.Stderr, "stampd: pick a mode: -bench or -listen ADDR")
		os.Exit(2)
	}
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "stampd:", err)
		os.Exit(2)
	}
}

func parseInts(csv, flagName string) []int {
	parts := strings.Split(csv, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			fatal(fmt.Errorf("%s: %q is not an integer", flagName, p))
		}
		out = append(out, n)
	}
	return out
}

type benchConfig struct {
	systems  []string
	clients  []int
	roPcts   []int
	rate     float64
	duration time.Duration
	user     int
	queries  int
	qrange   int
	seed     uint64
}

// runBench runs one load cell per (system × clients × ro) combination, each
// against a fresh server so the cells' statistics and arenas are
// independent.
func runBench(opts stamp.ServerOptions, cfg benchConfig) {
	fmt.Printf("goos: %s\ngoarch: %s\npkg: github.com/stamp-go/stamp/cmd/stampd\n",
		runtime.GOOS, runtime.GOARCH)
	exitCode := 0
	for _, sysName := range cfg.systems {
		opts.System = sysName
		for _, nc := range cfg.clients {
			for _, roPct := range cfg.roPcts {
				if err := benchCell(opts, cfg, nc, roPct); err != nil {
					fmt.Fprintln(os.Stderr, "stampd:", err)
					exitCode = 1
				}
			}
		}
	}
	os.Exit(exitCode)
}

func benchCell(opts stamp.ServerOptions, cfg benchConfig, nc, roPct int) error {
	srv, err := stamp.Serve(opts)
	if err != nil {
		return err
	}
	defer srv.Close()
	userPct := cfg.user
	if userPct == 0 {
		userPct = -1 // LoadOptions treats 0 as "default 90"
	}
	rep, err := stamp.RunLoad(srv, stamp.LoadOptions{
		Clients: nc, Rate: cfg.rate, Duration: cfg.duration,
		UserPct: userPct, ROPct: roPct,
		QueriesPerTx: cfg.queries, QueryRangePct: cfg.qrange, Seed: cfg.seed,
	})
	if err != nil {
		return err
	}

	loop := "closed-loop"
	if cfg.rate > 0 {
		loop = fmt.Sprintf("open-loop %.0f req/s", cfg.rate)
	}
	fmt.Printf("\n# cell        system=%s workers=%d clients=%d ro=%d%% user=%d%% (%s, %v)\n",
		srv.System(), opts.Workers, nc, roPct, userPct, loop, rep.Elapsed.Round(time.Millisecond))
	fmt.Printf("# requests    offered=%d completed=%d rejected=%d failed=%d lost=%d (%.0f req/s served)\n",
		rep.Offered, rep.Completed, rep.Rejected, rep.Failed, rep.Lost, rep.Throughput())
	l := rep.Latency
	fmt.Printf("# latency     p50=%v p99=%v p999=%v max=%v mean=%v\n",
		ns(l.P50Ns), ns(l.P99Ns), ns(l.P999Ns), ns(l.MaxNs), time.Duration(l.MeanNs).Round(time.Microsecond))
	ops := make([]string, 0, len(rep.PerOp))
	for op := range rep.PerOp {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	for _, op := range ops {
		s := rep.PerOp[op]
		fmt.Printf("# op %-8s n=%d p50=%v p99=%v p999=%v\n", op, s.Count, ns(s.P50Ns), ns(s.P99Ns), ns(s.P999Ns))
	}
	tot := rep.TM.Total
	fmt.Printf("# tm          starts=%d commits=%d aborts=%d escalations=%d cm-waits=%d\n",
		tot.Starts, tot.Commits, tot.Aborts, tot.Escalations, tot.CMWaits)
	if g := srv.Snapshot(); g.Swaps > 0 {
		fmt.Printf("# lifecycle   epoch=%d swaps=%d swap-pause-total=%v swap-pause-last=%v swap-pause-max=%v arena=%d/%d words reclaimed=%d words\n",
			g.Epoch, g.Swaps, time.Duration(g.SwapPauseNs).Round(time.Microsecond),
			time.Duration(g.LastSwapPauseNs).Round(time.Microsecond),
			time.Duration(g.MaxSwapPauseNs).Round(time.Microsecond), g.ArenaUsed, g.ArenaCap, g.ReclaimedWords)
	}
	names := stamp.CauseNames()
	var causes []string
	for c, n := range rep.TM.AbortCauses() {
		if n != 0 {
			causes = append(causes, fmt.Sprintf("%s %d", names[c], n))
		}
	}
	if len(causes) > 0 {
		fmt.Printf("# aborts      %s\n", strings.Join(causes, ", "))
	}

	// The machine-readable line: go test -bench format, one per cell, so
	// `benchjson` records mean latency as ns/op and the tail percentiles as
	// extra metrics. The -N suffix slots the worker count where go puts
	// GOMAXPROCS.
	if rep.Completed > 0 {
		fmt.Printf("BenchmarkStampd/%s/c%d/ro%d-%d\t%d\t%.0f ns/op\t%d p50-ns\t%d p99-ns\t%d p999-ns\t%.0f req/s\n",
			srv.System(), nc, roPct, opts.Workers,
			rep.Completed, l.MeanNs, l.P50Ns, l.P99Ns, l.P999Ns, rep.Throughput())
	}

	if rep.Torn > 0 {
		return fmt.Errorf("cell c%d/ro%d: %d torn query snapshots (used+free != total mid-read)", nc, roPct, rep.Torn)
	}
	if err := srv.CheckInvariants(); err != nil {
		return fmt.Errorf("cell c%d/ro%d: store invariants violated after load: %w", nc, roPct, err)
	}
	if err := srv.Close(); err != nil {
		return fmt.Errorf("cell c%d/ro%d: %w", nc, roPct, err)
	}
	return nil
}

func ns(v uint64) time.Duration { return time.Duration(v).Round(time.Microsecond) }

// runListen serves the pool over HTTP until SIGINT/SIGTERM, then closes the
// pool (draining accepted requests) before exiting.
func runListen(opts stamp.ServerOptions, addr string) {
	srv, err := stamp.Serve(opts)
	fatal(err)
	httpSrv := &http.Server{Addr: addr, Handler: srv.Handler()}
	done := make(chan os.Signal, 1)
	signal.Notify(done, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-done
		fmt.Fprintln(os.Stderr, "stampd: shutting down")
		httpSrv.Close()
	}()
	queueN := opts.Queue
	if queueN == 0 {
		queueN = 4 * opts.Workers
	}
	fmt.Printf("stampd: serving %s on %s (workers=%d queue=%d records=%d)\n",
		srv.System(), addr, opts.Workers, queueN, opts.Records)
	if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		fmt.Fprintln(os.Stderr, "stampd:", err)
		os.Exit(1)
	}
	if err := srv.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "stampd:", err)
		os.Exit(1)
	}
}
