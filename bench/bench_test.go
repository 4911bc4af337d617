package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs every workload untraced and traced at smoke sizes and holds
// the output to the manifest: exactly the listed metrics, finite values,
// positive end-to-end values, no failed operation, and a trace file whose
// spans all have their parent.
func TestSmoke(t *testing.T) {
	man, err := loadManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if n := len(man.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(man.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	for _, spec := range append(append([]metricSpec{}, man.EndToEnd...), man.PerLayer...) {
		if !metricName.MatchString(spec.Name) {
			t.Errorf("metric name %q breaks the naming rule", spec.Name)
		}
	}
	if len(man.Workloads) != len(workloads) {
		t.Errorf("manifest lists %d workloads, the program has %d", len(man.Workloads), len(workloads))
	}

	for _, w := range man.workloadNames() {
		for _, traced := range []bool{false, true} {
			specs, flag := man.EndToEnd, "0"
			if traced {
				specs, flag = man.PerLayer, "1"
			}
			var stdout, stderr bytes.Buffer
			code := run([]string{"--workload", w, "--smoke", "--seconds", "0.3", "--trace", flag}, &stdout, &stderr)
			if code != 0 {
				t.Fatalf("%s trace=%s: exit %d\n%s%s", w, flag, code, stdout.String(), stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%s: last line is not the result object: %v", w, flag, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%s: correct=%v attempted=%d failed=%d", w, flag, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(specs) {
				t.Errorf("%s trace=%s: %d metrics, manifest lists %d", w, flag, len(res.Metrics), len(specs))
			}
			for _, spec := range specs {
				m, ok := res.Metrics[spec.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%s: %s missing", w, flag, spec.Name)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s trace=%s: %s = %v", w, flag, spec.Name, m.Value)
				case !traced && m.Value <= 0:
					t.Errorf("%s: end-to-end %s = %v, want > 0", w, spec.Name, m.Value)
				case m.Unit != spec.Unit:
					t.Errorf("%s trace=%s: %s unit %q, manifest says %q", w, flag, spec.Name, m.Unit, spec.Unit)
				}
			}
			if traced {
				checkTrace(t, w)
			}
		}
	}
}

func checkTrace(t *testing.T, workload string) {
	t.Helper()
	b, err := os.ReadFile(tracePath(workload))
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(b, &tf); err != nil {
		t.Fatalf("%s: %v", tracePath(workload), err)
	}
	if len(tf.Spans) == 0 {
		t.Fatalf("%s: no spans", tracePath(workload))
	}
	ids := map[int]bool{0: true}
	for _, s := range tf.Spans {
		ids[s.ID] = true
	}
	for _, s := range tf.Spans {
		if !ids[s.Parent] {
			t.Errorf("%s: span %d (%s) has no parent %d", workload, s.ID, s.Name, s.Parent)
		}
		if s.End < s.Start {
			t.Errorf("%s: span %d (%s) ends before it starts", workload, s.ID, s.Name)
		}
	}
	for name, tot := range tf.ByName {
		if tot.SelfNs < 0 || tot.SelfNs > tot.TotalNs {
			t.Errorf("%s: %s self %d ns of total %d ns", workload, name, tot.SelfNs, tot.TotalNs)
		}
	}
}

// TestCompare pins the A/B tool's three verdicts and its exit code.
func TestCompare(t *testing.T) {
	man := manifest{
		Workloads: []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		}{{Name: "w"}},
		EndToEnd: []metricSpec{
			{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.10},
			{Name: "tx_per_s", Unit: "1/s", Better: "higher", Bound: 0.10},
			{Name: "p99_us", Unit: "us", Better: "lower", Bound: 0.10},
		},
	}
	dir := t.TempDir()
	write := func(name string, wall, rate, p99 []float64) string {
		path := filepath.Join(dir, name)
		for i := range wall {
			err := appendRecord(path, record{Workload: "w", Correct: true, Attempted: 1, Metrics: map[string]metric{
				"wall_s": {wall[i], "s"}, "tx_per_s": {rate[i], "1/s"}, "p99_us": {p99[i], "us"}}})
			if err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	a := write("a", []float64{1.00, 1.01, 0.99}, []float64{100, 101, 99}, []float64{10, 20, 30})
	b := write("b", []float64{1.05, 1.04, 1.06}, []float64{80, 81, 79}, []float64{10, 20, 30})
	var stdout, stderr bytes.Buffer
	if code := compareFiles([]string{a, b}, man, &stdout, &stderr); code != 1 {
		t.Errorf("exit %d, want 1 (tx_per_s is 20%% lower)\n%s", code, stdout.String())
	}
	for metric, verdict := range map[string]string{"wall_s": "ok", "tx_per_s": "worse", "p99_us": "unresolved"} {
		found := false
		for _, line := range strings.Split(stdout.String(), "\n") {
			f := strings.Fields(line)
			if len(f) > 2 && f[1] == metric && f[len(f)-1] == verdict {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: want verdict %s\n%s", metric, verdict, stdout.String())
		}
	}
	stdout.Reset()
	if code := compareFiles([]string{a, a}, man, &stdout, &stderr); code != 0 {
		t.Errorf("a file against itself: exit %d, want 0\n%s", code, stdout.String())
	}
}
