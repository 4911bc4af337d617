package tm

import (
	"testing"

	"github.com/stamp-go/stamp/internal/tm/trace"
)

// TestThreadStatsMergeAsymmetric merges two worker records whose Blocks
// slices have different lengths (one worker saw a high block ID, the other
// only a low one) in both directions, asserting no per-cause counter,
// per-block cause entry, or conflict-sketch row is dropped either way —
// the silent-stats-loss regression this PR's aggregation changes guard
// against.
func TestThreadStatsMergeAsymmetric(t *testing.T) {
	mk := func() (long, short *ThreadStats) {
		long = &ThreadStats{}
		long.Aborts = 2
		long.RecordAbort(3, trace.CauseWriteWrite, trace.AddrKey(42), 2)
		long.RecordAbort(3, trace.CauseReadValidation, trace.AddrKey(42), 2)
		long.Commits = 1
		long.RecordBlock(3, 2, 10, 5)

		short = &ThreadStats{}
		short.Aborts = 1
		short.RecordAbort(1, trace.CauseSeqChanged, trace.StripeKey(7), 0)
		short.Commits = 1
		short.RecordBlock(1, 1, 4, 2)
		return long, short
	}

	check := func(t *testing.T, dir string, m *ThreadStats) {
		t.Helper()
		if m.Aborts != 3 || m.Commits != 2 {
			t.Fatalf("%s: aborts/commits = %d/%d, want 3/2", dir, m.Aborts, m.Commits)
		}
		var sum uint64
		for _, n := range m.AbortCauses {
			sum += n
		}
		if sum != 3 {
			t.Errorf("%s: merged cause counters sum to %d, want 3 (%v)", dir, sum, m.AbortCauses)
		}
		for cause, want := range map[trace.AbortCause]uint64{
			trace.CauseWriteWrite:     1,
			trace.CauseReadValidation: 1,
			trace.CauseSeqChanged:     1,
		} {
			if m.AbortCauses[cause] != want {
				t.Errorf("%s: AbortCauses[%v] = %d, want %d", dir, cause, m.AbortCauses[cause], want)
			}
		}
		if len(m.Blocks) < 4 {
			t.Fatalf("%s: merged Blocks len = %d, want >= 4", dir, len(m.Blocks))
		}
		if m.Blocks[3].Causes[trace.CauseWriteWrite] != 1 ||
			m.Blocks[3].Causes[trace.CauseReadValidation] != 1 {
			t.Errorf("%s: block 3 causes = %v", dir, m.Blocks[3].Causes)
		}
		if m.Blocks[1].Causes[trace.CauseSeqChanged] != 1 {
			t.Errorf("%s: block 1 causes = %v", dir, m.Blocks[1].Causes)
		}
		rows := m.Conflicts.Top()
		if len(rows) != 2 {
			t.Fatalf("%s: merged heatmap rows = %+v, want 2 rows", dir, rows)
		}
		if rows[0].Key != trace.AddrKey(42) || rows[0].Count != 2 || rows[0].Blame != 2 {
			t.Errorf("%s: hottest row = %+v, want addr 42 count 2 blame 2", dir, rows[0])
		}
		if rows[1].Key != trace.StripeKey(7) || rows[1].Count != 1 {
			t.Errorf("%s: second row = %+v, want stripe 7 count 1", dir, rows[1])
		}
	}

	long, short := mk()
	long.Merge(short)
	check(t, "short into long", long)

	long, short = mk()
	short.Merge(long)
	check(t, "long into short", short)
}
