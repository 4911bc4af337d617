package harness

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

func TestVariantRegistryShape(t *testing.T) {
	all := Variants()
	if len(all) != 30 {
		t.Fatalf("Table IV has 30 variants, registry has %d", len(all))
	}
	sim := SimVariants()
	if len(sim) != 20 {
		t.Fatalf("20 simulation variants expected, got %d", len(sim))
	}
	apps := map[string]int{}
	names := map[string]bool{}
	for _, v := range all {
		if names[v.Name] {
			t.Fatalf("duplicate variant %q", v.Name)
		}
		names[v.Name] = true
		apps[v.App]++
		if v.Args == "" {
			t.Fatalf("variant %q missing Table IV args", v.Name)
		}
		if v.Make == nil {
			t.Fatalf("variant %q missing constructor", v.Name)
		}
	}
	if len(apps) != 8 {
		t.Fatalf("8 applications expected, got %d: %v", len(apps), apps)
	}
	for _, app := range []string{"kmeans", "vacation"} {
		if apps[app] != 6 {
			t.Fatalf("%s should have 6 variants, has %d", app, apps[app])
		}
	}
}

func TestFindVariant(t *testing.T) {
	v, err := FindVariant("kmeans-low+")
	if err != nil || v.App != "kmeans" {
		t.Fatalf("FindVariant: %v %v", v, err)
	}
	if _, err := FindVariant("nope"); err == nil {
		t.Fatal("expected error")
	}
}

func TestRunVariantSmoke(t *testing.T) {
	for _, name := range []string{"genome", "kmeans-high", "ssca2", "vacation-low"} {
		v, err := FindVariant(name)
		if err != nil {
			t.Fatal(err)
		}
		r, err := RunVariant(v, Options{Scale: 0.05, System: "stm-lazy", Threads: 2})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r.Verify != nil {
			t.Fatalf("%s failed verification: %v", name, r.Verify)
		}
		if r.Stats.Total.Commits == 0 {
			t.Fatalf("%s: no commits", name)
		}
	}
}

// TestRunVariantNOrec drives the NOrec runtimes through the harness on the
// workloads the NOrec paper argues about (read-dominated genome/vacation,
// tiny-transaction kmeans): results must verify and every started block
// must eventually commit at 4 threads.
func TestRunVariantNOrec(t *testing.T) {
	for _, sysName := range []string{"stm-norec", "stm-norec-ro"} {
		for _, name := range []string{"genome", "vacation-low", "kmeans-high"} {
			v, err := FindVariant(name)
			if err != nil {
				t.Fatal(err)
			}
			r, err := RunVariant(v, Options{Scale: 0.05, System: sysName, Threads: 4})
			if err != nil {
				t.Fatalf("%s on %s: %v", name, sysName, err)
			}
			if r.Verify != nil {
				t.Fatalf("%s on %s failed verification: %v", name, sysName, r.Verify)
			}
			if r.Stats.Total.Commits == 0 {
				t.Fatalf("%s on %s: no commits", name, sysName)
			}
			if r.Stats.Total.Starts != r.Stats.Total.Commits {
				t.Fatalf("%s on %s: starts %d != commits %d", name, sysName,
					r.Stats.Total.Starts, r.Stats.Total.Commits)
			}
		}
	}
}

func TestCharacterizeSmoke(t *testing.T) {
	v, err := FindVariant("kmeans-high")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Characterize(v, Options{Scale: 0.1, RetryThreads: 4})
	if err != nil {
		t.Fatal(err)
	}
	if c.TxCount == 0 || c.MeanStores == 0 {
		t.Fatalf("empty characterization: %+v", c)
	}
	if len(c.Retries) != 6 {
		t.Fatalf("retries for %d systems, want 6", len(c.Retries))
	}
	// kmeans transactions write D+1 accumulator words ~ small write set.
	if c.WriteSetP90 > 32 {
		t.Fatalf("kmeans write set implausibly large: %d lines", c.WriteSetP90)
	}
	var buf bytes.Buffer
	WriteTableVI(&buf, []Characterization{c})
	if !strings.Contains(buf.String(), "kmeans-high") {
		t.Fatal("table output missing row")
	}
	q := Bucketize(c)
	if q.RWSet != "Small" {
		t.Fatalf("kmeans bucketized as %q read/write set, want Small", q.RWSet)
	}
	var buf3 bytes.Buffer
	WriteTableIII(&buf3, []Qualitative{q})
	if !strings.Contains(buf3.String(), "kmeans-high") {
		t.Fatal("table III output missing row")
	}
}

// TestFootprintIsWhatTheSeqRunDrew pins Table VI's "Footprint" column to the
// seq run's arena high-water mark. It used to print the app's ArenaWords
// sizing estimate, which for vacation is several times what a run draws.
func TestFootprintIsWhatTheSeqRunDrew(t *testing.T) {
	const scale = 0.05
	v, err := FindVariant("vacation-low")
	if err != nil {
		t.Fatal(err)
	}
	seq, err := RunVariant(v, Options{Scale: scale, System: "seq"})
	if err != nil {
		t.Fatal(err)
	}
	estimate := v.Make(scale).ArenaWords()
	if seq.ArenaUsed <= 4 || seq.ArenaUsed >= estimate/2 {
		t.Fatalf("seq run drew %d words of a %d-word estimate; want a real draw well under it", seq.ArenaUsed, estimate)
	}
	c, err := Characterize(v, Options{Scale: scale, RetryThreads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if c.FootprintWords != seq.ArenaUsed {
		t.Fatalf("Characterize footprint %d words, seq run drew %d", c.FootprintWords, seq.ArenaUsed)
	}
	var buf bytes.Buffer
	WriteTableVI(&buf, []Characterization{c})
	mb := func(words int) string { return fmt.Sprintf("%.1fMB", float64(words)*8/(1<<20)) }
	if !strings.HasSuffix(strings.TrimSpace(buf.String()), " "+mb(seq.ArenaUsed)) {
		t.Fatalf("Table VI row does not end in the drawn footprint %s (estimate %s):\n%s", mb(seq.ArenaUsed), mb(estimate), buf.String())
	}
}

func TestMeasureSpeedupSmoke(t *testing.T) {
	v, err := FindVariant("ssca2")
	if err != nil {
		t.Fatal(err)
	}
	s, err := MeasureSpeedup(v, Options{Scale: 0.05, ThreadCounts: []int{1, 2}, Systems: []string{"stm-lazy", "htm-lazy"}})
	if err != nil {
		t.Fatal(err)
	}
	if s.Baseline <= 0 {
		t.Fatal("no baseline")
	}
	for _, sys := range []string{"stm-lazy", "htm-lazy"} {
		if len(s.Wall[sys]) != 2 {
			t.Fatalf("%s: %d samples", sys, len(s.Wall[sys]))
		}
		if s.Speedup(sys, 0) <= 0 {
			t.Fatalf("%s: non-positive speedup", sys)
		}
	}
	var buf bytes.Buffer
	WriteFigure1(&buf, []SpeedupSeries{s})
	if !strings.Contains(buf.String(), "ssca2") {
		t.Fatal("figure output missing variant")
	}
	var csv bytes.Buffer
	WriteFigure1CSV(&csv, []SpeedupSeries{s})
	if !strings.Contains(csv.String(), "ssca2,stm-lazy,2") {
		t.Fatal("csv output missing row")
	}
}

func TestModelSpeedupOrdering(t *testing.T) {
	// With identical measured stats, the model must rank HTM >= hybrid >=
	// STM (hardware pays less per barrier).
	base := Result{Wall: 1e9}
	mk := func(sys string) Result {
		r := Result{System: sys, Threads: 4, Wall: 5e8}
		r.Stats.Total.Loads = 1e6
		r.Stats.Total.Stores = 1e5
		return r
	}
	htm := ModelSpeedup(base, mk("htm-lazy"))
	hyb := ModelSpeedup(base, mk("hybrid-lazy"))
	stm := ModelSpeedup(base, mk("stm-lazy"))
	if !(htm >= hyb && hyb >= stm) {
		t.Fatalf("model ordering broken: htm %.2f hybrid %.2f stm %.2f", htm, hyb, stm)
	}
	if htm <= 0 || stm <= 0 {
		t.Fatal("model produced non-positive speedups")
	}
}
