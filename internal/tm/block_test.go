package tm

import (
	"fmt"
	"sync"
	"testing"

	"github.com/stamp-go/stamp/internal/mem"
)

func TestBlockRegistry(t *testing.T) {
	a := NewBlock("block-test/a")
	b := NewBlock("block-test/b")
	if a == b || a == NoBlock || b == NoBlock {
		t.Fatalf("ids not distinct: a=%d b=%d", a, b)
	}
	if again := NewBlock("block-test/a"); again != a {
		t.Fatalf("re-registration not idempotent: %d then %d", a, again)
	}
	if got := BlockName(a); got != "block-test/a" {
		t.Fatalf("BlockName(a) = %q", got)
	}
	if got := BlockName(NoBlock); got != "(unattributed)" {
		t.Fatalf("BlockName(NoBlock) = %q", got)
	}
	if got := BlockName(BlockID(1 << 20)); got != "" {
		t.Fatalf("unknown id named %q", got)
	}
	if got := NewBlock(""); got != NoBlock {
		t.Fatalf("empty name = %d, want NoBlock", got)
	}
	if n := NumBlocks(); n < 3 {
		t.Fatalf("NumBlocks() = %d", n)
	}
}

func TestBlockRegistryConcurrent(t *testing.T) {
	const workers = 8
	ids := make([][]BlockID, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				ids[w] = append(ids[w], NewBlock(fmt.Sprintf("block-test/conc-%d", i)))
			}
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		for i := range ids[w] {
			if ids[w][i] != ids[0][i] {
				t.Fatalf("worker %d got id %d for name %d, worker 0 got %d",
					w, ids[w][i], i, ids[0][i])
			}
		}
	}
}

func TestRecordBlockAndMerge(t *testing.T) {
	blk := NewBlock("block-test/record")
	var a, b ThreadStats
	a.RecordBlock(blk, 2, 10, 1)
	a.RecordBlock(blk, 0, 20, 3)
	b.RecordBlock(blk, 1, 30, 2)
	b.RecordBlock(NoBlock, 0, 5, 0)

	agg := Aggregate([]*ThreadStats{&a, &b})
	rows := agg.Blocks()
	byName := map[string]BlockRow{}
	for _, row := range rows {
		byName[row.Name] = row
	}
	row, ok := byName["block-test/record"]
	if !ok {
		t.Fatalf("no row for the recorded block: %v", rows)
	}
	if row.Commits != 3 || row.Aborts != 3 || row.Loads != 60 || row.Stores != 6 {
		t.Fatalf("row = %+v", row.BlockStats)
	}
	if got := row.MeanLoads(); got != 20 {
		t.Fatalf("MeanLoads = %v", got)
	}
	if got := row.MeanStores(); got != 2 {
		t.Fatalf("MeanStores = %v", got)
	}
	un, ok := byName["(unattributed)"]
	if !ok || un.Commits != 1 {
		t.Fatalf("unattributed row = %+v (ok=%v)", un.BlockStats, ok)
	}
	// Source records must be untouched by aggregation.
	if a.Blocks[blk].Commits != 2 || b.Blocks[blk].Commits != 1 {
		t.Fatalf("aggregation mutated sources: %d / %d", a.Blocks[blk].Commits, b.Blocks[blk].Commits)
	}
}

// TestSeqRecordsBlocks pins the end-to-end flow on the simplest runtime:
// AtomicAt attributes, Atomic lands on (unattributed), and per-block totals
// sum to the aggregate commit count.
func TestSeqRecordsBlocks(t *testing.T) {
	blk := NewBlock("block-test/seq")
	sys := mustSeq(t, 1)
	th := sys.Thread(0)
	a := sys.Arena().Alloc(1)
	for i := 0; i < 5; i++ {
		th.AtomicAt(blk, func(tx Tx) { tx.Store(a, tx.Load(a)+1) })
	}
	th.Atomic(func(tx Tx) { tx.Store(a, tx.Load(a)+1) })

	st := sys.Stats()
	var sum uint64
	var found bool
	for _, row := range st.Blocks() {
		sum += row.Commits
		if row.Name == "block-test/seq" {
			found = true
			if row.Commits != 5 {
				t.Fatalf("block row = %+v", row.BlockStats)
			}
		}
	}
	if !found {
		t.Fatalf("no row for the annotated block: %+v", st.Blocks())
	}
	if sum != st.Total.Commits {
		t.Fatalf("per-block commits sum to %d, aggregate says %d", sum, st.Total.Commits)
	}
}

func mustSeq(t *testing.T, threads int) *Seq {
	t.Helper()
	sys, err := NewSeq(Config{Arena: mem.NewArena(1 << 10), Threads: threads})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}
