package server

import (
	"math"
	"sync"
	"testing"
	"time"
)

// TestLatIndexRoundTrip: every value must land in a bucket whose range
// contains it, and bucket upper bounds must be monotonically increasing.
func TestLatIndexRoundTrip(t *testing.T) {
	values := []uint64{0, 1, 31, 32, 33, 63, 64, 100, 1023, 1024, 1 << 20, 1 << 30, 1 << 40, math.MaxUint64}
	for _, v := range values {
		idx := latIndex(v)
		if idx < 0 || idx >= latBuckets {
			t.Fatalf("latIndex(%d) = %d out of range", v, idx)
		}
		if u := latUpper(idx); v > u && idx < latBuckets-1 {
			t.Fatalf("latIndex(%d) = %d but bucket upper bound is %d", v, idx, u)
		}
	}
	prev := uint64(0)
	for i := 1; i < latBuckets; i++ {
		u := latUpper(i)
		if u <= prev {
			t.Fatalf("latUpper not monotone at %d: %d <= %d", i, u, prev)
		}
		prev = u
	}
}

// TestLatHistQuantiles: the reported quantiles of a uniform stream must be
// within the histogram's ~3% relative-error bound.
func TestLatHistQuantiles(t *testing.T) {
	var h LatHist
	const n = 100000
	for i := 1; i <= n; i++ {
		h.Add(time.Duration(i) * time.Microsecond)
	}
	s := h.Summary()
	if s.Count != n {
		t.Fatalf("count = %d, want %d", s.Count, n)
	}
	check := func(name string, got uint64, wantNs float64) {
		t.Helper()
		rel := math.Abs(float64(got)-wantNs) / wantNs
		if rel > 0.04 {
			t.Errorf("%s = %d, want ~%.0f (rel err %.3f)", name, got, wantNs, rel)
		}
		// Conservative: a quantile must never under-report.
		if float64(got) < wantNs*(1-1e-9) {
			t.Errorf("%s = %d under-reports %.0f", name, got, wantNs)
		}
	}
	check("p50", s.P50Ns, 0.50*n*1000)
	check("p99", s.P99Ns, 0.99*n*1000)
	check("p999", s.P999Ns, 0.999*n*1000)
	if s.MaxNs != n*1000 {
		t.Errorf("max = %d, want %d", s.MaxNs, n*1000)
	}
	if s.P999Ns > s.MaxNs {
		t.Errorf("p999 %d exceeds max %d", s.P999Ns, s.MaxNs)
	}
	wantMean := float64(n+1) / 2 * 1000
	if math.Abs(s.MeanNs-wantMean)/wantMean > 1e-9 {
		t.Errorf("mean = %f, want %f", s.MeanNs, wantMean)
	}
}

// TestLatHistEmpty: an untouched histogram summarizes to zeros.
func TestLatHistEmpty(t *testing.T) {
	var h LatHist
	if s := h.Summary(); s != (LatSummary{}) {
		t.Fatalf("empty summary = %+v", s)
	}
}

// TestLatHistNegativeClamp: negative durations (clock steps) clamp to zero
// instead of corrupting a bucket index.
func TestLatHistNegativeClamp(t *testing.T) {
	var h LatHist
	h.Add(-time.Second)
	s := h.Summary()
	if s.Count != 1 || s.P50Ns != 0 || s.MaxNs != 0 {
		t.Fatalf("negative observation mis-recorded: %+v", s)
	}
}

// TestLatHistConcurrent: concurrent Adds must not lose observations (run
// under -race this also proves the wait-free claim).
func TestLatHistConcurrent(t *testing.T) {
	var h LatHist
	const workers, each = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				h.Add(time.Duration(w*each+i) * time.Nanosecond)
			}
		}(w)
	}
	wg.Wait()
	if got := h.Summary().Count; got != workers*each {
		t.Fatalf("lost observations: %d of %d", got, workers*each)
	}
}
