package harness

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/table6.golden from this build")

const table6Golden = "testdata/table6.golden"

// goldenScale is the scale a variant's golden row is computed at: small
// enough that all 30 rows take a few seconds, large enough that every app
// runs past its minimum input sizes.
func goldenScale(v Variant) float64 {
	if v.Sim {
		return 0.1
	}
	return 0.005
}

// goldenRow renders the deterministic Table VI columns of one variant.
func goldenRow(c Characterization, scale float64) string {
	return fmt.Sprintf("%-16s %6g %8d %9.3f %9.3f %4d %4d %9d",
		c.Variant, scale, c.TxCount, c.MeanLoads, c.MeanStores,
		c.ReadSetP90, c.WriteSetP90, c.FootprintWords)
}

// TestTableVIGolden pins Table VI's untimed columns for all 30 Table IV
// variants: seq's transaction count, barriers per transaction and arena
// footprint, and one-thread htm-lazy's 90th-percentile read and write sets.
// A change to any application's transaction shape moves a row; -update is
// the only way to accept it. The rows are one-thread and deterministic, so
// -short (CI's race run, where they take over a minute) skips them.
func TestTableVIGolden(t *testing.T) {
	if testing.Short() && !*update {
		t.Skip("Table VI golden skipped in short mode")
	}
	var got bytes.Buffer
	got.WriteString("# Table VI's deterministic columns (harness.Shape). Regenerate with\n")
	got.WriteString("#   go test ./internal/harness -run TestTableVIGolden -update\n")
	got.WriteString("# variant scale txs rdbar wrbar rdset90 wrset90 footprint_words\n")
	rows := map[string]string{}
	for _, v := range Variants() {
		s := goldenScale(v)
		c, err := Shape(v.Make(s), v.Name)
		if err != nil {
			t.Fatalf("%s: %v", v.Name, err)
		}
		rows[v.Name] = goldenRow(c, s)
		got.WriteString(rows[v.Name] + "\n")
	}
	if *update {
		if err := os.MkdirAll(filepath.Dir(table6Golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(table6Golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(table6Golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := sc.Text(); line != "" && !strings.HasPrefix(line, "#") {
			want[strings.Fields(line)[0]] = line
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, v := range Variants() {
		if want[v.Name] != rows[v.Name] {
			t.Errorf("%s moved:\n  golden %s\n  now    %s", v.Name, want[v.Name], rows[v.Name])
		}
		delete(want, v.Name)
	}
	for name := range want {
		t.Errorf("golden row %q names no Table IV variant", name)
	}
}
