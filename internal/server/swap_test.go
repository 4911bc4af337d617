package server

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/stamp-go/stamp/internal/apps/vacation"
	"github.com/stamp-go/stamp/internal/rng"
	"github.com/stamp-go/stamp/internal/tm"
	"github.com/stamp-go/stamp/internal/tm/factory"
)

// swapOptions is a server sized so arena churn crosses the swap threshold
// within a few load rounds: the arena holds the live store about three
// times over, so every swap has compaction headroom but the bump high-water
// reaches SwapAt quickly.
func swapOptions(system string) Options {
	return Options{
		System:      system,
		Workers:     4,
		Records:     128,
		ArenaWords:  3 * vacation.StoreWords(128),
		Seed:        11,
		Diagnostics: &bytes.Buffer{},
	}
}

// driveCallers is how many goroutines the swap tests drive with, each
// calling Do in a closed loop: twice the four slots of the servers they
// drive, so requests also take the overflow path, not only the inline one.
const driveCallers = 8

// drive runs one round of n requests through Do from callers goroutines:
// vacation's default mix with roPct% read-only queries, seeded per round.
// Each request must succeed and no query may see a torn record — an epoch
// swap must be invisible to clients apart from latency — and a request
// unanswered after a minute fails the test as lost. The round is a request
// count, not a wall-clock window, so what it covers does not depend on how
// fast the host or the swap is.
func drive(t *testing.T, s *Server, callers, n, roPct int, seed uint64) {
	t.Helper()
	opt := LoadOptions{ROPct: roPct}.withDefaults()
	var answered atomic.Int64
	errs := make(chan error, callers)
	var wg sync.WaitGroup
	for c := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rng.New(seed ^ 0x6c6f6164 ^ uint64(c)<<32)
			for i := c; i < n; i += callers {
				resp := s.Do(nextRequest(r, opt, s.opt.Records))
				answered.Add(1)
				if resp.Err != nil || resp.Torn != 0 {
					errs <- fmt.Errorf("%s: err=%v torn=%d (swaps so far %d)",
						resp.Op, resp.Err, resp.Torn, s.Snapshot().Swaps)
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(time.Minute):
		t.Fatalf("round %d: %d of %d requests unanswered after a minute", seed, int64(n)-answered.Load(), n)
	}
	close(errs)
	for err := range errs {
		t.Fatalf("round %d: %v", seed, err)
	}
}

// soak drives rounds of mixed load (30% queries) at s until want swaps have
// happened, or fails once the round budget runs out. It returns the number
// of requests served.
func soak(t *testing.T, s *Server, want uint64) (completed uint64) {
	t.Helper()
	const perRound = 1000
	for round := 1; round <= 60; round++ {
		drive(t, s, driveCallers, perRound, 30, uint64(round))
		completed += perRound
		if s.Snapshot().Swaps >= want {
			return completed
		}
	}
	t.Fatalf("only %d swaps after the round budget, want >= %d", s.Snapshot().Swaps, want)
	return completed
}

// TestServerEpochSwapSoak is the lifecycle e2e the PR exists for: a server
// whose arena is far too small for its cumulative churn survives a mixed
// read-write load through at least three epoch swaps with no failed or
// hanging request, table invariants intact, statistics continuous across
// the retired epochs, and the abort-cause taxonomy still closed.
func TestServerEpochSwapSoak(t *testing.T) {
	for _, sys := range []string{"stm-norec", "stm-mv", "stm-lazy"} {
		t.Run(sys, func(t *testing.T) {
			s, err := New(swapOptions(sys))
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			completed := soak(t, s, 3)

			g := s.Snapshot()
			if g.Swaps < 3 {
				t.Fatalf("swaps = %d, want >= 3", g.Swaps)
			}
			if g.Epoch != g.Swaps {
				t.Fatalf("epoch %d != swaps %d", g.Epoch, g.Swaps)
			}
			if g.LastSwapPauseNs <= 0 || g.MaxSwapPauseNs < g.LastSwapPauseNs || g.SwapPauseNs < g.MaxSwapPauseNs ||
				g.SwapPauseNs > int64(g.Swaps)*g.MaxSwapPauseNs {
				t.Fatalf("swap pause gauges inconsistent: total=%d last=%d max=%d over %d swaps",
					g.SwapPauseNs, g.LastSwapPauseNs, g.MaxSwapPauseNs, g.Swaps)
			}
			if g.ArenaUsed > g.ArenaCap {
				t.Fatalf("arena gauge %d/%d", g.ArenaUsed, g.ArenaCap)
			}
			if err := s.CheckInvariants(); err != nil {
				t.Fatalf("invariants after %d swaps: %v", g.Swaps, err)
			}
			// Stats must span the retired epochs: commits across all epochs
			// cover every mutating request, and the cause taxonomy stays
			// closed (no unknown aborts introduced by swap plumbing).
			st := s.TMStats()
			if st.Total.Commits < uint64(completed) {
				t.Fatalf("merged commits %d < completed requests %d — retired-epoch stats dropped",
					st.Total.Commits, completed)
			}
			causes := st.AbortCauses()
			if causes[tm.CauseUnknown] != 0 {
				t.Fatalf("%d unknown-cause aborts", causes[tm.CauseUnknown])
			}
			var sum uint64
			for _, n := range causes {
				sum += n
			}
			if sum != st.Total.Aborts {
				t.Fatalf("cause sum %d != total aborts %d", sum, st.Total.Aborts)
			}
		})
	}
}

// TestChaosSwapStallStorm arms the swap-stall failpoint at probability 1 on
// every registered concurrent runtime: every epoch swap wedges inside its
// quiesce window (every slot held by the swap, requests waiting for one).
// The server must still come out the other side — swaps complete, no
// request fails or hangs, invariants hold. The name keeps it inside the CI
// liveness job's chaos regex.
func TestChaosSwapStallStorm(t *testing.T) {
	for _, sys := range serverSystems() {
		t.Run(sys, func(t *testing.T) {
			skipSimulatedHWShort(t, sys)
			opt := swapOptions(sys)
			opt.Chaos = "1:swap-stall:1"
			s, err := New(opt)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			soak(t, s, 1)
			if err := s.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if s.Err() != nil {
				t.Fatalf("server failed under swap-stall storm: %v", s.Err())
			}
		})
	}
}

// TestChaosAllocExhaustServing arms the alloc-exhaust failpoint at low
// probability under serving load on every registered concurrent runtime:
// injected exhaustion aborts must be absorbed by the runtime retry loop —
// no request-visible failure, no unknown-cause abort — while real
// capacity pressure still drives epoch swaps underneath.
func TestChaosAllocExhaustServing(t *testing.T) {
	for _, sys := range serverSystems() {
		t.Run(sys, func(t *testing.T) {
			skipSimulatedHWShort(t, sys)
			opt := swapOptions(sys)
			opt.Chaos = "3:alloc-exhaust:0.02"
			s, err := New(opt)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			soak(t, s, 1)
			causes := s.TMStats().AbortCauses()
			if causes[tm.CauseAllocExhausted] == 0 {
				t.Error("armed alloc-exhaust site never attributed an abort")
			}
			if causes[tm.CauseUnknown] != 0 {
				t.Fatalf("%d unknown-cause aborts", causes[tm.CauseUnknown])
			}
			if err := s.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestServerTinyOpBudgetSurvives is the regression the seed would fail: a
// server provisioned for a tiny operation budget serves an order of
// magnitude more requests than it was budgeted for. Transactional free
// keeps the steady-state high-water bounded and epoch swaps reclaim what
// fragmentation still leaks, so exhaustion never reaches a client.
func TestServerTinyOpBudgetSurvives(t *testing.T) {
	opt := Options{
		Workers: 4, Records: 64, OpBudget: 64, Seed: 5,
		Diagnostics: &bytes.Buffer{},
	}
	s, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for round := 1; round <= 10; round++ {
		drive(t, s, driveCallers, opt.OpBudget, 20, uint64(round))
	}
	if g := s.Snapshot(); g.Served != uint64(10*opt.OpBudget) {
		t.Fatalf("served %d, want 10x the %d-op budget", g.Served, opt.OpBudget)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestServerRequestDeadline: with a deadline the pool cannot possibly meet,
// every request fails typed (ErrDeadline) instead of being served late or
// hanging, and the failure is client-visible accounting, not a server
// fault.
func TestServerRequestDeadline(t *testing.T) {
	opt := testOptions()
	opt.RequestDeadline = time.Nanosecond
	s, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	done := make(chan Response, 1)
	if err := s.Submit(&Request{Op: OpQuery, done: done}); err != nil {
		t.Fatal(err)
	}
	resp := <-done
	if !errors.Is(resp.Err, ErrDeadline) {
		t.Fatalf("response error %v, want ErrDeadline", resp.Err)
	}
	// An inline caller gets the same typed failure, booked on its slot.
	probe := func(tm.Tx) { t.Error("request past its deadline was served") }
	if resp := s.Do(&Request{Op: opProbe, probe: probe}); !errors.Is(resp.Err, ErrDeadline) {
		t.Fatalf("Do response error %v, want ErrDeadline", resp.Err)
	}
	if g := s.Snapshot(); g.Failed != 2 || g.Inline != 1 {
		t.Fatalf("deadline misses not booked on the slots: %+v", g)
	}
	if s.Err() != nil {
		t.Fatalf("deadline miss must not fail the server: %v", s.Err())
	}
}

// skipSimulatedHWShort skips the simulated-hardware runtimes in short mode,
// the same policy as the apps integration suite: capacity overflow
// serializes them, so soaking to an epoch swap under the race detector
// blows the round budget without testing anything the STM cells don't.
func skipSimulatedHWShort(t *testing.T, sys string) {
	t.Helper()
	if testing.Short() && (strings.HasPrefix(sys, "htm") || strings.HasPrefix(sys, "hybrid")) {
		t.Skip("simulated-hardware system skipped in short mode")
	}
}

// serverSystems is factory.Names() minus the sequential baseline, which
// serving mode rejects (concurrent slots need a concurrent runtime).
func serverSystems() []string {
	names := factory.Names()
	out := names[:0:0]
	for _, n := range names {
		if n != "seq" {
			out = append(out, n)
		}
	}
	return out
}
