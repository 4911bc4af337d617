// Package server is the serving harness: a long-lived transactional arena
// and a fixed set of tm.Thread slots that callers lease to run the vacation
// operations (see internal/apps/vacation.Store) to completion on their own
// goroutines, with a bounded queue and a small pool for the overflow — the
// paper's batch benchmark recast as a service with tail-latency accounting.
package server

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// The latency histogram is log-linear (HDR-style): 2^latSubBits linear
// sub-buckets per power of two of nanoseconds, so relative error is bounded
// by 1/latSub (~3%) at every magnitude, the Add path is one atomic
// increment, and the whole histogram is a fixed ~10 KiB array — safe to
// read (or share between goroutines) with no locks.
const (
	latSubBits = 5
	latSub     = 1 << latSubBits // 32 linear buckets per octave
	latGroups  = 40              // covers up to 2^(latSubBits+latGroups) ns ≈ 9.7 h
	latBuckets = latSub * (latGroups + 1)
)

// latIndex maps a nanosecond value to its bucket.
func latIndex(ns uint64) int {
	if ns < latSub {
		return int(ns)
	}
	g := bits.Len64(ns) - latSubBits - 1
	if g >= latGroups {
		g = latGroups - 1
	}
	return (g+1)*latSub + int((ns>>uint(g))&(latSub-1))
}

// latUpper returns the inclusive upper bound of a bucket, so quantiles are
// conservative (never under-reported).
func latUpper(idx int) uint64 {
	if idx < latSub {
		return uint64(idx)
	}
	g := idx/latSub - 1
	pos := idx % latSub
	return (uint64(latSub+pos+1))<<uint(g) - 1
}

// LatHist is a concurrent log-linear latency histogram. Add is wait-free;
// Summary reads a racy-but-consistent-enough snapshot (each counter is
// individually atomic), which is exact once writers have quiesced.
type LatHist struct {
	sum     atomic.Uint64
	max     atomic.Uint64
	buckets [latBuckets]atomic.Uint64
}

// Add records one latency observation.
func (h *LatHist) Add(d time.Duration) {
	ns := uint64(d)
	if d < 0 {
		ns = 0
	}
	h.sum.Add(ns)
	for {
		cur := h.max.Load()
		if ns <= cur || h.max.CompareAndSwap(cur, ns) {
			break
		}
	}
	h.buckets[latIndex(ns)].Add(1)
}

// LatSummary is one histogram's percentile readout, in nanoseconds.
type LatSummary struct {
	Count  uint64  `json:"count"`
	MeanNs float64 `json:"mean_ns"`
	P50Ns  uint64  `json:"p50_ns"`
	P99Ns  uint64  `json:"p99_ns"`
	P999Ns uint64  `json:"p999_ns"`
	MaxNs  uint64  `json:"max_ns"`
}

// latCounts is a plain (non-atomic) accumulation of one or more LatHists:
// the merge step between the per-slot histograms and one LatSummary.
type latCounts struct {
	buckets  [latBuckets]uint64
	sum, max uint64
}

// add folds h's current contents into c.
func (c *latCounts) add(h *LatHist) {
	for i := range h.buckets {
		c.buckets[i] += h.buckets[i].Load()
	}
	c.sum += h.sum.Load()
	c.max = max(c.max, h.max.Load())
}

// Summary computes count, mean, p50/p99/p999 (bucket upper bounds, ≤3.2%
// relative error) and the exact max.
func (h *LatHist) Summary() LatSummary {
	var c latCounts
	c.add(h)
	return c.summary()
}

func (c *latCounts) summary() LatSummary {
	var total uint64
	for _, n := range c.buckets {
		total += n
	}
	s := LatSummary{Count: total, MaxNs: c.max}
	if total == 0 {
		return s
	}
	s.MeanNs = float64(c.sum) / float64(total)
	quantile := func(q float64) uint64 {
		rank := uint64(q * float64(total))
		if rank >= total {
			rank = total - 1
		}
		var seen uint64
		for i, n := range c.buckets {
			seen += n
			if seen > rank {
				// never report past the observed max
				return min(latUpper(i), s.MaxNs)
			}
		}
		return s.MaxNs
	}
	s.P50Ns = quantile(0.50)
	s.P99Ns = quantile(0.99)
	s.P999Ns = quantile(0.999)
	return s
}
