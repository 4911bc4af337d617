package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// record is one run in a result file (--out): one JSON object per line.
type record struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Trace     bool              `json:"trace"`
	Env       hostInfo          `json:"env"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("result file: %w", err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("result file: %w", err)
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("result file: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("result file: %w", err)
	}
	return nil
}

// readRecords returns a result file's untraced runs as metric samples:
// workload → metric → one value per run. A run with failed operations
// counts against the side that produced it.
func readRecords(path string) (values map[string]map[string][]float64, failed int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	values = map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, 0, fmt.Errorf("%s: %w", path, err)
		}
		if rec.Trace {
			continue
		}
		failed += rec.Failed
		if values[rec.Workload] == nil {
			values[rec.Workload] = map[string][]float64{}
		}
		for name, m := range rec.Metrics {
			values[rec.Workload][name] = append(values[rec.Workload][name], m.Value)
		}
	}
	return values, failed, sc.Err()
}

// spread is the distance between the first and the third quartile over the
// median, with the quartiles of Python's statistics.quantiles(values, n=4) —
// the statistic the benchmark's acceptance uses.
func spread(xs []float64) float64 {
	n := len(xs)
	m := median(xs)
	if n < 2 || m == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	quartile := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (quartile(3) - quartile(1)) / m
}

// compareFiles prints one row per (workload, end-to-end metric): both
// medians, the relative difference of B against A, the manifest's bound and
// a verdict. worse: B's median is worse than A's by more than the bound.
// unresolved: either side's own spread is wider than the bound, so the
// difference cannot be told from noise. It exits 1 on any worse row or
// failed operation.
func compareFiles(paths []string, man manifest, stdout, stderr io.Writer) int {
	if len(paths) != 2 {
		fmt.Fprintln(stderr, "bench: --compare takes two result files")
		return 2
	}
	a, failedA, err := readRecords(paths[0])
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	b, failedB, err := readRecords(paths[1])
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	exit := 0
	fmt.Fprintf(stdout, "%-12s %-16s %5s %13s %13s %8s %7s %7s %7s  %s\n",
		"workload", "metric", "runs", "median A", "median B", "B vs A", "iqr A", "iqr B", "bound", "verdict")
	for _, w := range man.workloadNames() {
		for _, spec := range man.EndToEnd {
			xa, xb := a[w][spec.Name], b[w][spec.Name]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			ma, mb := median(xa), median(xb)
			rel := (mb - ma) / ma
			worse := rel
			if spec.Better == "higher" {
				worse = -rel
			}
			verdict := "ok"
			switch {
			case worse > spec.Bound:
				verdict = "worse"
				exit = 1
			case spread(xa) > spec.Bound || spread(xb) > spec.Bound:
				verdict = "unresolved"
			}
			fmt.Fprintf(stdout, "%-12s %-16s %2d/%-2d %13.6g %13.6g %+7.1f%% %6.1f%% %6.1f%% %6.1f%%  %s\n",
				w, spec.Name, len(xa), len(xb), ma, mb, 100*rel, 100*spread(xa), 100*spread(xb), 100*spec.Bound, verdict)
		}
	}
	if failedA+failedB > 0 {
		fmt.Fprintf(stdout, "failed operations: A %d, B %d\n", failedA, failedB)
		exit = 1
	}
	return exit
}
