package tm

import (
	"reflect"
	"testing"
	"testing/quick"

	"github.com/stamp-go/stamp/internal/mem"
)

func TestHistMeanAndPercentile(t *testing.T) {
	var h Hist
	for v := 1; v <= 100; v++ {
		h.Add(v)
	}
	if h.N() != 100 {
		t.Fatalf("N = %d", h.N())
	}
	if mean := h.Mean(); mean != 50.5 {
		t.Fatalf("mean = %v", mean)
	}
	if p := h.Percentile(0.90); p != 90 {
		t.Fatalf("p90 = %d", p)
	}
	if p := h.Percentile(1.0); p != 100 {
		t.Fatalf("p100 = %d", p)
	}
	if p := h.Percentile(0.0); p != 1 {
		t.Fatalf("p0 = %d", p)
	}
}

func TestHistEmpty(t *testing.T) {
	var h Hist
	if h.Mean() != 0 || h.Percentile(0.9) != 0 || h.N() != 0 {
		t.Fatal("empty histogram not zeroed")
	}
}

func TestHistNegativeClamped(t *testing.T) {
	var h Hist
	h.Add(-5)
	if h.Percentile(1) != 0 {
		t.Fatal("negative observation not clamped to 0")
	}
}

func TestHistOverflowBucket(t *testing.T) {
	var h Hist
	h.Add(histCap + 100)
	if p := h.Percentile(0.99); p != histCap {
		t.Fatalf("overflow percentile = %d, want %d", p, histCap)
	}
}

func TestHistMerge(t *testing.T) {
	var a, b Hist
	for i := 0; i < 10; i++ {
		a.Add(1)
		b.Add(3)
	}
	a.Merge(&b)
	if a.N() != 20 || a.Mean() != 2 {
		t.Fatalf("merge: N=%d mean=%v", a.N(), a.Mean())
	}
}

func TestHistPercentileMatchesExact(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		var h Hist
		counts := make([]int, 256)
		for _, v := range raw {
			h.Add(int(v))
			counts[v]++
		}
		// exact p90: smallest v with cumulative >= ceil-ish target
		target := int(0.9 * float64(len(raw)))
		if target == 0 {
			target = 1
		}
		cum, exact := 0, 255
		for v, c := range counts {
			cum += c
			if cum >= target {
				exact = v
				break
			}
		}
		return h.Percentile(0.9) == exact
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestAggregate(t *testing.T) {
	a := &ThreadStats{Starts: 3, Commits: 3, Aborts: 1, Loads: 10, Stores: 5}
	b := &ThreadStats{Starts: 2, Commits: 2, Aborts: 3, Loads: 4, Stores: 1}
	s := Aggregate([]*ThreadStats{a, b})
	if s.Threads != 2 || s.Total.Commits != 5 || s.Total.Aborts != 4 {
		t.Fatalf("aggregate wrong: %+v", s.Total)
	}
	if r := s.RetriesPerTx(); r != 0.8 {
		t.Fatalf("retries/tx = %v", r)
	}
}

func TestRetriesPerTxEmpty(t *testing.T) {
	var s Stats
	if s.RetriesPerTx() != 0 {
		t.Fatal("empty stats retries != 0")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.Defaults()
	if c.Threads != 1 || c.MVVersions != DefaultMVVersions || c.StarveAfter != DefaultStarveAfter {
		t.Fatalf("defaults wrong: %+v", c)
	}
	// Explicit values survive.
	c2 := Config{Threads: 7, MVVersions: 3}.Defaults()
	if c2.Threads != 7 || c2.MVVersions != 3 {
		t.Fatalf("explicit values overwritten: %+v", c2)
	}
}

// TestConfigFieldCount is a ratchet on the knob count: a field added to
// Config must update this number, and a field removed must lower it.
func TestConfigFieldCount(t *testing.T) {
	const want = 10
	if got := reflect.TypeOf(Config{}).NumField(); got != want {
		t.Fatalf("tm.Config has %d fields, want %d; ROADMAP item 6 targets <= 16 — update this count with the change that moves it", got, want)
	}
}

// TestNewReserverChunk pins the reservation size Config.NewReserver derives
// from the arena: DefaultAllocChunk, capped to Cap/(16·Threads), and
// passthrough (no refills) under 16·Threads words. A chunk of c words
// costs one refill for the first c one-word allocations and a second on
// the next one.
func TestNewReserverChunk(t *testing.T) {
	cases := []struct {
		name            string
		words, threads  int
		allocs, refills uint64
	}{
		{"default chunk fills", 1 << 20, 2, DefaultAllocChunk, 1},
		{"default chunk refills", 1 << 20, 2, DefaultAllocChunk + 1, 2},
		{"capped chunk fills", 1 << 13, 2, 256, 1},
		{"capped chunk refills", 1 << 13, 2, 257, 2},
		{"passthrough", 31, 2, 8, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			arena := mem.NewArena(c.words)
			r := Config{Arena: arena, Threads: c.threads}.NewReserver()
			for range c.allocs {
				r.Alloc(1)
			}
			if got := r.Refills(); got != c.refills {
				t.Fatalf("%d one-word allocations cost %d refills, want %d", c.allocs, got, c.refills)
			}
		})
	}
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{Threads: 1}).Validate(); err == nil {
		t.Fatal("nil arena accepted")
	}
	a := mem.NewArena(64)
	if err := (Config{Arena: a, Threads: 0}).Validate(); err == nil {
		t.Fatal("zero threads accepted")
	}
	if err := (Config{Arena: a, Threads: 65}).Validate(); err == nil {
		t.Fatal("65 threads accepted")
	}
	if err := (Config{Arena: a, Threads: 16}).Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestSpinReturns(t *testing.T) {
	Spin(0)
	Spin(10_000)
}

func TestAttemptConvertsRetry(t *testing.T) {
	arena := mem.NewArena(64)
	s, err := NewSeq(Config{Arena: arena, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	th := s.Txs[0]
	th.reset()
	if ok := Attempt(th, func(Tx) { Retry() }); ok {
		t.Fatal("retry reported as success")
	}
	if ok := Attempt(th, func(Tx) {}); !ok {
		t.Fatal("clean attempt reported as failure")
	}
}

func TestAttemptPropagatesRealPanic(t *testing.T) {
	arena := mem.NewArena(64)
	s, _ := NewSeq(Config{Arena: arena, Threads: 1})
	th := s.Txs[0]
	defer func() {
		if recover() == nil {
			t.Fatal("application panic swallowed")
		}
	}()
	Attempt(th, func(Tx) { panic("app bug") })
}

func TestFloatHelpers(t *testing.T) {
	arena := mem.NewArena(64)
	d := mem.Direct{A: arena}
	a := arena.Alloc(1)
	StoreF64(d, a, -3.25)
	if got := LoadF64(d, a); got != -3.25 {
		t.Fatalf("LoadF64 = %v", got)
	}
	StoreInt(d, a, -42)
	if got := LoadInt(d, a); got != -42 {
		t.Fatalf("LoadInt = %v", got)
	}
}
