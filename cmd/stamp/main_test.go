package main

import (
	"bytes"
	"strings"
	"testing"

	"github.com/stamp-go/stamp/internal/harness"
)

// invoke runs the command in-process and returns its exit code and output.
func invoke(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// deterministic keeps the Table VI columns that do not depend on timing or
// scheduling: application, Txs, RdBar, WrBar, RdSet90, WrSet90, Footprint.
func deterministic(row string) []string {
	f := strings.Fields(row)
	return []string{f[0], f[1], f[3], f[4], f[5], f[6], f[len(f)-1]}
}

func TestTableVIMatchesCharacterize(t *testing.T) {
	code, out, errOut := invoke(t, "-table", "6", "-variant", "kmeans-low", "-scale", "0.01", "-threads", "2")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 || !strings.HasPrefix(lines[0], "Table VI") || !strings.HasPrefix(lines[1], "Application") {
		t.Fatalf("want the Table VI title, header and one row, got:\n%s", out)
	}
	v, err := harness.FindVariant("kmeans-low")
	if err != nil {
		t.Fatal(err)
	}
	c, err := harness.Characterize(v, harness.Options{Scale: 0.01, RetryThreads: 2})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	harness.WriteTableVI(&want, []harness.Characterization{c})
	wantRow := strings.Split(strings.TrimSpace(want.String()), "\n")[1]
	if got, want := strings.Join(deterministic(lines[2]), " "), strings.Join(deterministic(wantRow), " "); got != want {
		t.Fatalf("deterministic columns = %q, harness.Characterize gives %q", got, want)
	}
	if strings.Contains(out, "Table III") {
		t.Fatal("-table 6 printed Table III")
	}
}

func TestTableIIIAppended(t *testing.T) {
	code, out, errOut := invoke(t, "-table", "3", "-variant", "kmeans-low", "-scale", "0.01", "-threads", "2")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	vi, iii, ok := strings.Cut(out, "Table III")
	if !ok || !strings.Contains(vi, "Table VI") {
		t.Fatalf("want Table VI then Table III, got:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(iii), "\n")
	if len(lines) != 3 || !strings.HasPrefix(lines[1], "Application") || !strings.HasPrefix(lines[2], "kmeans-low ") {
		t.Fatalf("want the Table III header and a kmeans-low row, got:\n%s", iii)
	}
}

func TestFigure1CSV(t *testing.T) {
	code, out, errOut := invoke(t, "-figure", "1", "-variant", "kmeans-low", "-scale", "0.01",
		"-threads", "1,2", "-systems", "stm-norec", "-csv")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 || lines[0] != "variant,system,threads,wall_ns,speedup,model_speedup" {
		t.Fatalf("want the CSV header and two rows, got:\n%s", out)
	}
	for i, prefix := range []string{"kmeans-low,stm-norec,1,", "kmeans-low,stm-norec,2,"} {
		if !strings.HasPrefix(lines[i+1], prefix) {
			t.Fatalf("row %d = %q, want prefix %q", i+1, lines[i+1], prefix)
		}
	}
}

func TestUsageErrorsExit2(t *testing.T) {
	for _, args := range [][]string{
		{"-table", "5"},
		{"-figure", "2"},
		{"-figure", "1", "-systems", "seq"},
	} {
		code, out, errOut := invoke(t, args...)
		if code != 2 || out != "" || !strings.HasPrefix(errOut, "stamp: ") {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2 and one diagnostic", args, code, out, errOut)
		}
	}
}
