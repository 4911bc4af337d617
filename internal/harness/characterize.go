package harness

import (
	"fmt"
	"io"
	"sort"

	"github.com/stamp-go/stamp/internal/apps"
)

// Characterization is one Table VI row, with the paper's "instructions per
// transaction" replaced by two documented proxies (barriers per transaction
// and sequential ns per transaction — see README, "Reproducing the paper").
type Characterization struct {
	Variant string

	TxCount     uint64  // committed transactions (seq run)
	NsPerTx     float64 // mean wall ns per transaction on seq (instr proxy)
	MeanLoads   float64 // read barriers per transaction
	MeanStores  float64 // write barriers per transaction
	ReadSetP90  int     // 90th pctile read set, 32-byte lines (lazy HTM)
	WriteSetP90 int     // 90th pctile write set, 32-byte lines (lazy HTM)
	TxTimePct   float64 // % of execution time in transactions (lazy HTM)

	// Retries per transaction at the given thread count, per system.
	Retries map[string]float64

	// FootprintWords is the workload footprint (a working-set proxy): the
	// words the seq run drew from its arena (Result.ArenaUsed), not the
	// app's ArenaWords sizing estimate, which provisions slack on top.
	FootprintWords int
}

// Characterize reproduces one Table VI row for a variant at opt.Scale:
// Shape's seq and lazy-HTM runs give every column but the retries (the HTM
// gives read/write sets and time-in-transactions, as in the paper), and
// every TM system at opt.RetryThreads threads (0 = 16, the paper's)
// provides retries per transaction. The remaining per-run knobs
// of opt apply to the retry-column runs (contention management is what
// those columns vary; the zero Options keeps
// each runtime's defaults). opt.ExtraRetrySystems adds retry columns for
// runtimes beyond the paper's six (e.g. "stm-norec"); opt.System and
// opt.Threads are ignored — the columns pick their own.
func Characterize(v Variant, opt Options) (Characterization, error) {
	if err := opt.Validate(); err != nil {
		return Characterization{Variant: v.Name}, fmt.Errorf("harness: invalid options: %w", err)
	}
	opt = opt.withDefaults()
	app := v.Make(opt.Scale)
	c, err := Shape(app, v.Name)
	if err != nil {
		return c, err
	}
	c.Retries = map[string]float64{}
	for _, sysName := range append(TMSystems(), opt.ExtraRetrySystems...) {
		ro := opt
		ro.System = sysName
		ro.Threads = opt.RetryThreads
		r, err := RunOne(app, v.Name, ro)
		if err != nil {
			return c, err
		}
		if r.Verify != nil {
			return c, fmt.Errorf("characterize %s: %s run failed verification: %w", v.Name, sysName, r.Verify)
		}
		c.Retries[sysName] = r.RetriesPerTx()
	}
	return c, nil
}

// Shape runs a Table VI row's one-thread seq and htm-lazy runs, no retry
// runs. Its untimed columns (TxCount, MeanLoads, MeanStores, FootprintWords
// from seq; ReadSetP90, WriteSetP90 from htm-lazy) are a pure function of
// (variant, scale, seed); the timed NsPerTx and TxTimePct vary run to run.
func Shape(app apps.App, name string) (Characterization, error) {
	c := Characterization{Variant: name}
	seq, err := RunOne(app, name, Options{System: "seq", Threads: 1})
	if err != nil {
		return c, err
	}
	if seq.Verify != nil {
		return c, fmt.Errorf("characterize %s: seq run failed verification: %w", name, seq.Verify)
	}
	c.FootprintWords = seq.ArenaUsed
	c.TxCount = seq.Stats.Total.Commits
	if c.TxCount > 0 {
		c.NsPerTx = float64(seq.Stats.Total.TxTimeNs) / float64(c.TxCount)
	}
	c.MeanLoads = seq.Stats.MeanLoads()
	c.MeanStores = seq.Stats.MeanStores()

	htm, err := RunOne(app, name, Options{System: "htm-lazy", Threads: 1})
	if err != nil {
		return c, err
	}
	if htm.Verify != nil {
		return c, fmt.Errorf("characterize %s: htm-lazy run failed verification: %w", name, htm.Verify)
	}
	c.ReadSetP90 = htm.Stats.ReadSetP90()
	c.WriteSetP90 = htm.Stats.WriteSetP90()
	c.TxTimePct = htm.TxTimeFraction() * 100
	return c, nil
}

// TMSystems returns the six TM systems in the paper's Table VI column
// order: HTM lazy/eager, STM lazy/eager (retry columns), with hybrids
// included for completeness.
func TMSystems() []string {
	return []string{"htm-lazy", "htm-eager", "hybrid-lazy", "hybrid-eager", "stm-lazy", "stm-eager"}
}

// extraRetrySystems collects retry-column systems beyond the paper's six
// present in any row, sorted, so Table VI grows columns instead of dropping
// measurements.
func extraRetrySystems(rows []Characterization) []string {
	paper := make(map[string]bool)
	for _, sys := range TMSystems() {
		paper[sys] = true
	}
	seen := make(map[string]bool)
	var extra []string
	for _, c := range rows {
		for sys := range c.Retries {
			if !paper[sys] && !seen[sys] {
				seen[sys] = true
				extra = append(extra, sys)
			}
		}
	}
	sort.Strings(extra)
	return extra
}

// WriteTableVI renders characterization rows in the shape of Table VI. Any
// retry measurements beyond the paper's six systems are appended as extra
// columns headed by the system name.
func WriteTableVI(w io.Writer, rows []Characterization) {
	extra := extraRetrySystems(rows)
	fmt.Fprintf(w, "%-16s %10s %12s %8s %8s %8s %8s %7s %8s %8s %8s %8s %8s %8s",
		"Application", "Txs", "ns/Tx(seq)", "RdBar", "WrBar", "RdSet90", "WrSet90", "TxTime",
		"rHTMlz", "rHTMeg", "rHYBlz", "rHYBeg", "rSTMlz", "rSTMeg")
	for _, sys := range extra {
		fmt.Fprintf(w, " %14s", "r:"+sys)
	}
	fmt.Fprintf(w, " %10s\n", "Footprint")
	for _, c := range rows {
		fmt.Fprintf(w, "%-16s %10d %12.0f %8.1f %8.1f %8d %8d %6.0f%% %8.2f %8.2f %8.2f %8.2f %8.2f %8.2f",
			c.Variant, c.TxCount, c.NsPerTx, c.MeanLoads, c.MeanStores,
			c.ReadSetP90, c.WriteSetP90, c.TxTimePct,
			c.Retries["htm-lazy"], c.Retries["htm-eager"],
			c.Retries["hybrid-lazy"], c.Retries["hybrid-eager"],
			c.Retries["stm-lazy"], c.Retries["stm-eager"])
		for _, sys := range extra {
			fmt.Fprintf(w, " %14.2f", c.Retries[sys])
		}
		fmt.Fprintf(w, " %9.1fMB\n", float64(c.FootprintWords)*8/(1<<20))
	}
}

// Qualitative is one Table III row derived from measured data.
type Qualitative struct {
	Variant    string
	TxLength   string // Short / Medium / Long
	RWSet      string // Small / Medium / Large
	TxTime     string // Low / Medium / High
	Contention string // Low / Medium / High
}

// Bucketize derives the paper's Table III qualitative labels from a
// characterization row, using thresholds chosen so the paper's own numbers
// land in the paper's own buckets.
func Bucketize(c Characterization) Qualitative {
	q := Qualitative{Variant: c.Variant}
	switch {
	case c.NsPerTx < 2000:
		q.TxLength = "Short"
	case c.NsPerTx < 40000:
		q.TxLength = "Medium"
	default:
		q.TxLength = "Long"
	}
	set := c.ReadSetP90 + c.WriteSetP90
	switch {
	case set < 40:
		q.RWSet = "Small"
	case set < 300:
		q.RWSet = "Medium"
	default:
		q.RWSet = "Large"
	}
	switch {
	case c.TxTimePct < 25:
		q.TxTime = "Low"
	case c.TxTimePct < 70:
		q.TxTime = "Medium"
	default:
		q.TxTime = "High"
	}
	worst := 0.0
	for _, r := range c.Retries {
		if r > worst {
			worst = r
		}
	}
	switch {
	case worst < 0.3:
		q.Contention = "Low"
	case worst < 2:
		q.Contention = "Medium"
	default:
		q.Contention = "High"
	}
	return q
}

// WriteTableIII renders qualitative rows in the shape of Table III.
func WriteTableIII(w io.Writer, rows []Qualitative) {
	fmt.Fprintf(w, "%-16s %-8s %-8s %-8s %-10s\n", "Application", "TxLen", "R/W Set", "TxTime", "Contention")
	for _, q := range rows {
		fmt.Fprintf(w, "%-16s %-8s %-8s %-8s %-10s\n", q.Variant, q.TxLength, q.RWSet, q.TxTime, q.Contention)
	}
}
