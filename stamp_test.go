package stamp_test

import (
	"fmt"
	"strings"
	"testing"

	"github.com/stamp-go/stamp"
)

func TestSystemsRoster(t *testing.T) {
	got := stamp.Systems()
	if len(got) != 9 {
		t.Fatalf("Systems() = %v", got)
	}
	// TMSystems stays pinned to the paper's six evaluated systems even as
	// the registry grows; the extra runtimes must still all be in Systems().
	tm := stamp.TMSystems()
	if len(tm) != 6 {
		t.Fatalf("TMSystems() = %v", tm)
	}
	for _, name := range tm {
		if name == "seq" {
			t.Fatal("seq listed as a TM system")
		}
	}
	all := make(map[string]bool)
	for _, name := range got {
		all[name] = true
	}
	for _, name := range append(tm, "stm-norec", "stm-mv") {
		if !all[name] {
			t.Fatalf("Systems() = %v is missing %q", got, name)
		}
	}
}

func TestParseSystems(t *testing.T) {
	got, err := stamp.ParseSystems(" stm-norec,,stm-lazy , stm-norec,", true)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "stm-norec" || got[1] != "stm-lazy" {
		t.Fatalf("ParseSystems = %v (want dedup, trim, order preserved)", got)
	}
	if _, err := stamp.ParseSystems("nope", true); err == nil {
		t.Fatal("unknown system accepted")
	}
	if _, err := stamp.ParseSystems("", true); err == nil {
		t.Fatal("empty list accepted")
	}
	if _, err := stamp.ParseSystems("seq", false); err == nil {
		t.Fatal("seq accepted with allowSeq=false")
	}
	if got, err := stamp.ParseSystems("seq", true); err != nil || len(got) != 1 {
		t.Fatalf("seq rejected with allowSeq=true: %v %v", got, err)
	}
}

func TestCMRoster(t *testing.T) {
	names := stamp.CMNames()
	if len(names) != 5 {
		t.Fatalf("CMNames() = %v", names)
	}
	for _, name := range names {
		if stamp.CMDescription(name) == "" {
			t.Fatalf("policy %q has no description", name)
		}
	}
}

func TestParseCM(t *testing.T) {
	if got, err := stamp.ParseCM(" greedy "); err != nil || got != "greedy" {
		t.Fatalf("ParseCM(greedy) = %q, %v (want trimmed name)", got, err)
	}
	if got, err := stamp.ParseCM(""); err != nil || got != "" {
		t.Fatalf("ParseCM(\"\") = %q, %v (empty means per-runtime default)", got, err)
	}
	if _, err := stamp.ParseCM("nope"); err == nil {
		t.Fatal("unknown contention manager accepted")
	}
}

// TestRunCMEndToEnd: every registered policy must run a real variant to a
// verified result on a word-granularity and a line-granularity runtime.
func TestRunCMEndToEnd(t *testing.T) {
	for _, cm := range stamp.CMNames() {
		for _, sys := range []string{"stm-lazy", "hybrid-eager"} {
			res, err := stamp.Run("ssca2", stamp.Options{Scale: 0.05, System: sys, Threads: 4, CM: cm})
			if err != nil {
				t.Fatalf("%s on %s: %v", cm, sys, err)
			}
			if res.Verify != nil {
				t.Fatalf("%s on %s failed verification: %v", cm, sys, res.Verify)
			}
			if res.CM != cm {
				t.Fatalf("result CM = %q, want %q", res.CM, cm)
			}
		}
	}
	if _, err := stamp.Run("ssca2", stamp.Options{Scale: 0.05, System: "stm-lazy", Threads: 2, CM: "no-such-cm"}); err == nil {
		t.Fatal("unknown contention manager accepted by Run")
	}
}

func TestPublicAtomicRoundTrip(t *testing.T) {
	arena := stamp.NewArena(1 << 10)
	a := arena.Alloc(1)
	for _, name := range stamp.Systems() {
		sys, err := stamp.NewSystem(name, stamp.Config{Arena: arena, Threads: 1})
		if err != nil {
			t.Fatalf("NewSystem(%s): %v", name, err)
		}
		sys.Thread(0).Atomic(func(tx stamp.Tx) {
			tx.Store(a, tx.Load(a)+1)
		})
	}
	if got := arena.Load(a); got != uint64(len(stamp.Systems())) {
		t.Fatalf("counter = %d", got)
	}
}

func TestPublicContainers(t *testing.T) {
	arena := stamp.NewArena(1 << 16)
	d := stamp.Direct{A: arena}
	l := stamp.NewList(d)
	l.Insert(d, 1, 10)
	q := stamp.NewQueue(d, 4)
	q.Push(d, 7)
	h := stamp.NewHashtable(d, 8)
	h.Insert(d, 9, 90)
	tr := stamp.NewRBTree(d)
	tr.Insert(d, 3, 30)
	hp := stamp.NewHeap(d, 4)
	hp.Push(d, 2, 20)
	vec := stamp.NewVector(d, 4)
	vec.PushBack(d, 5)
	bm := stamp.NewBitmap(d, 64)
	bm.Set(d, 10)
	if v, _ := l.Get(d, 1); v != 10 {
		t.Fatal("list")
	}
	if v, _ := q.Pop(d); v != 7 {
		t.Fatal("queue")
	}
	if v, _ := h.Get(d, 9); v != 90 {
		t.Fatal("hashtable")
	}
	if v, _ := tr.Get(d, 3); v != 30 {
		t.Fatal("rbtree")
	}
	if _, v, _ := hp.Pop(d); v != 20 {
		t.Fatal("heap")
	}
	if vec.At(d, 0) != 5 {
		t.Fatal("vector")
	}
	if !bm.Test(d, 10) {
		t.Fatal("bitmap")
	}
	addr := arena.Alloc(1)
	stamp.StoreF64(d, addr, 1.5)
	if stamp.LoadF64(d, addr) != 1.5 {
		t.Fatal("float helpers")
	}
}

func TestPublicRunVariant(t *testing.T) {
	res, err := stamp.Run("ssca2", stamp.Options{Scale: 0.05, System: "stm-eager", Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verify != nil {
		t.Fatalf("verification failed: %v", res.Verify)
	}
	if res.Stats.Total.Commits == 0 {
		t.Fatal("no transactions")
	}
	if _, err := stamp.Run("no-such-variant", stamp.Options{System: "seq"}); err == nil {
		t.Fatal("unknown variant accepted")
	}
	if _, err := stamp.Run("ssca2", stamp.Options{Scale: 0.05, System: "no-such-system"}); err == nil {
		t.Fatal("unknown system accepted")
	}
	if _, err := stamp.Run("ssca2", stamp.Options{Scale: 0.05}); err == nil {
		t.Fatal("missing System accepted")
	}
}

// ExampleNewSystem shows the core usage pattern: allocate transactional
// data in an arena, construct a runtime by name (here with an explicit
// contention-manager policy), and run atomic blocks through a worker's
// Thread handle.
func ExampleNewSystem() {
	arena := stamp.NewArena(1 << 10)
	account := arena.Alloc(1)
	sys, err := stamp.NewSystem("stm-lazy", stamp.Config{
		Arena:   arena,
		Threads: 1,
		CM:      "greedy", // pluggable contention management (see CMNames)
	})
	if err != nil {
		panic(err)
	}
	sys.Thread(0).Atomic(func(tx stamp.Tx) {
		tx.Store(account, tx.Load(account)+100)
	})
	fmt.Println(arena.Load(account))
	// Output: 100
}

// ExampleParseSystems shows the validation the commands apply to -systems:
// whitespace is trimmed, duplicates collapse, unknown names are rejected.
func ExampleParseSystems() {
	systems, _ := stamp.ParseSystems(" stm-lazy, stm-norec ,stm-lazy", true)
	fmt.Println(systems)

	_, err := stamp.ParseSystems("stm-fancy", true)
	fmt.Println(err != nil)
	// Output:
	// [stm-lazy stm-norec]
	// true
}

// ExampleRun_abortCauses shows the observability readout of a run: every
// abort carries a taxonomy cause (Stats.AbortCauses, indexed like
// CauseNames), and the conflict heatmap names the hottest contended
// locations (Stats.TopConflicts). Counts vary run to run, so the example
// prints the invariants instead: the cause counters account for every
// abort and nothing lands in the "unknown" bucket.
func ExampleRun_abortCauses() {
	res, err := stamp.Run("vacation-high", stamp.Options{Scale: 0.05, System: "stm-lazy", Threads: 4})
	if err != nil {
		panic(err)
	}
	causes := res.Stats.AbortCauses()
	var attributed uint64
	for _, n := range causes {
		attributed += n
	}
	fmt.Println("all aborts attributed:", attributed == res.Stats.Total.Aborts)
	fmt.Println("unknown-cause aborts:", causes[stamp.CauseUnknown])
	for _, row := range res.Stats.TopConflicts() {
		// row.Key.String() is e.g. "addr 0x2a"; row.Causes the per-cause
		// split; row.Blame the most-blamed enemy block.
		_ = row
	}
	// Output:
	// all aborts attributed: true
	// unknown-cause aborts: 0
}

// ExampleRun_readOnlySnapshot shows the stm-mv snapshot guarantee: a
// block registered through NewROBlock reads the state as of its begin
// timestamp, so a writer committing mid-transaction changes what later
// transactions see but never what this one sees — the second load is
// served from the stripe's version ring, not the (already newer) arena
// word, with no validation and no abort.
func ExampleRun_readOnlySnapshot() {
	arena := stamp.NewArena(1 << 10)
	x := arena.Alloc(1)
	arena.Store(x, 1)
	sys, err := stamp.NewSystem("stm-mv", stamp.Config{Arena: arena, Threads: 2})
	if err != nil {
		panic(err)
	}

	snap := stamp.NewROBlock("example/snapshot-reader")
	writerGo := make(chan struct{})
	writerDone := make(chan struct{})
	go func() {
		<-writerGo
		sys.Thread(1).Atomic(func(tx stamp.Tx) {
			tx.Store(x, 2)
		})
		close(writerDone)
	}()

	sys.Thread(0).AtomicAt(snap, func(tx stamp.Tx) {
		first := tx.Load(x)
		close(writerGo) // a writer commits x=2 while this tx is live
		<-writerDone
		second := tx.Load(x) // still the snapshot value, from the ring
		fmt.Println("snapshot reads:", first, second)
	})
	fmt.Println("after:", arena.Load(x))
	fmt.Println("reader aborts:", sys.Thread(0).Stats().Aborts)
	// Output:
	// snapshot reads: 1 1
	// after: 2
	// reader aborts: 0
}

// ExampleCMNames lists the contention-manager registry the -cm flag (and
// Config.CM) selects from.
func ExampleCMNames() {
	fmt.Println(strings.Join(stamp.CMNames(), " "))
	// Output: expo greedy karma none randlin
}

func TestTableIVArgsPinned(t *testing.T) {
	// Guard the Table IV argument strings against silent drift: spot-check
	// rows exactly as printed in the paper.
	want := map[string]string{
		"bayes":          "-v32 -r1024 -n2 -p20 -i2 -e2",
		"bayes++":        "-v32 -r4096 -n10 -p40 -i2 -e8 -s1",
		"genome++":       "-g16384 -s64 -n16777216",
		"kmeans-high++":  "-m15 -n15 -t0.00001 -i random-n65536-d32-c16",
		"labyrinth+":     "-i random-x48-y48-z3-n64",
		"ssca2+":         "-s14 -i1.0 -u1.0 -l9 -p9",
		"vacation-low++": "-n2 -q90 -u98 -r1048576 -t4194304",
		"vacation-high":  "-n4 -q60 -u90 -r16384 -t4096",
		"yada":           "-a20 -i 633.2",
		"yada++":         "-a15 -i ttimeu1000000.2",
	}
	for name, args := range want {
		v, err := stamp.FindVariant(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if v.Args != args {
			t.Fatalf("%s args = %q, want %q", name, v.Args, args)
		}
	}
	// Every variant's app must be derivable from its name.
	for _, v := range stamp.Variants() {
		base := strings.TrimRight(v.Name, "+")
		if idx := strings.IndexByte(base, '-'); idx >= 0 {
			base = base[:idx]
		}
		if base != v.App {
			t.Fatalf("variant %q maps to app %q", v.Name, v.App)
		}
	}
}
