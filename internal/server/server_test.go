package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/stamp-go/stamp/internal/tm"
)

// testOptions keeps e2e servers small and fast.
func testOptions() Options {
	return Options{
		Workers: 4, Records: 512, OpBudget: 1 << 15, Seed: 7,
		Diagnostics: &bytes.Buffer{},
	}
}

func TestServerOptionsValidate(t *testing.T) {
	if err := (Options{}).Validate(); err != nil {
		t.Fatalf("zero Options must validate: %v", err)
	}
	err := Options{
		System: "seq", Workers: 99, Queue: -1, Records: -1,
		OpBudget: -1, ArenaWords: -1, CM: "nope",
	}.Validate()
	if err == nil {
		t.Fatal("invalid Options validated")
	}
	for _, want := range []string{
		"seq", "workers", "queue", "records",
		"op budget", "arena words", "unknown contention manager",
	} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("joined error %q is missing %q", err, want)
		}
	}
	if _, err := New(Options{Workers: -1}); err == nil {
		t.Fatal("New accepted invalid options")
	}
}

func TestLoadOptionsValidate(t *testing.T) {
	if err := (LoadOptions{}).Validate(); err != nil {
		t.Fatalf("zero LoadOptions must validate: %v", err)
	}
	err := LoadOptions{
		Clients: -1, Rate: -1, Duration: -time.Second,
		UserPct: 101, ROPct: 101, QueriesPerTx: -1, QueryRangePct: -1,
	}.Validate()
	if err == nil {
		t.Fatal("invalid LoadOptions validated")
	}
	for _, want := range []string{
		"clients", "rate", "duration", "user pct",
		"ro pct", "queries per tx", "query range pct",
	} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("joined error %q is missing %q", err, want)
		}
	}
}

// TestServerMixedLoad is the serving-mode e2e: a mixed read-write /
// read-only load at several client counts against one warm server, then
// table invariants, snapshot consistency, and abort-cause hygiene. Run
// under -race this is also the data-race proof for the whole lease →
// execute → release → stats path, and (8 clients on 4 slots) for the
// parked requests beside it. Every (clients, roPct) cell is a fixed request
// count through drive, so what the test covers does not depend on how fast
// the host is.
func TestServerMixedLoad(t *testing.T) {
	const perCell = 2000
	for _, sys := range []string{"stm-norec", "stm-lazy", "stm-mv"} {
		t.Run(sys, func(t *testing.T) {
			opt := testOptions()
			opt.System = sys
			s, err := New(opt)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			var served, queries uint64
			for _, clients := range []int{2, 8} {
				for _, roPct := range []int{0, 50} {
					drive(t, s, clients, perCell, roPct, uint64(clients))
					served += perCell
					g := s.Snapshot()
					if g.Served != served || g.Failed != 0 {
						t.Fatalf("c%d/ro%d: served %d failed %d, want %d, 0", clients, roPct, g.Served, g.Failed, served)
					}
					if g.Latency.Count != served {
						t.Fatalf("c%d/ro%d: latency count %d != served %d", clients, roPct, g.Latency.Count, served)
					}
					if g.Latency.P50Ns > g.Latency.P99Ns || g.Latency.P99Ns > g.Latency.P999Ns {
						t.Fatalf("c%d/ro%d: quantiles not monotone: %+v", clients, roPct, g.Latency)
					}
					if n := s.TMStats().AbortCauses()[tm.CauseUnknown]; n != 0 {
						t.Fatalf("c%d/ro%d: %d unknown-cause aborts", clients, roPct, n)
					}
					q := g.PerOp[OpQuery.String()].Count
					if roPct > 0 && q == queries {
						t.Fatalf("c%d/ro%d: no query latency recorded: %v", clients, roPct, g.PerOp)
					}
					queries = q
					if err := s.CheckInvariants(); err != nil {
						t.Fatalf("c%d/ro%d: invariants violated: %v", clients, roPct, err)
					}
				}
			}
			// On stm-mv a query's first attempt is snapshot-served, and the
			// only way that attempt aborts is the ring having dropped the
			// snapshot's version: a reader descheduled behind 4 slots and
			// 8 clients is lapped by the 8-deep ring a few times a run.
			// The retry is an ordinary TL2 attempt (which may abort for
			// TL2's reasons), and every request above still succeeded.
			// The exact properties — zero aborts within the ring's depth,
			// mv-version-missing past it — are pinned deterministically by
			// mv_test.go.
			//
			// On stm-norec a query's first attempt is log-free and aborts on
			// any commit that lands during it; the retry is logged NOrec. Both
			// kinds of attempt can only abort with seq-changed.
			for _, row := range s.TMStats().Blocks() {
				if row.Name != "stampd/query" {
					continue
				}
				t.Logf("stampd/query: %d commits, %d aborts", row.Commits, row.Aborts)
				if sys == "stm-mv" && row.Aborts != 0 && row.Causes[tm.CauseMVVersionMissing] == 0 {
					t.Fatalf("stm-mv query block aborted %d times, none of them mv-version-missing: %v",
						row.Aborts, row.Causes)
				}
				if sys == "stm-norec" && row.Causes[tm.CauseSeqChanged] != row.Aborts {
					t.Fatalf("stm-norec query block aborted %d times, %d of them seq-changed: %v",
						row.Aborts, row.Causes[tm.CauseSeqChanged], row.Causes)
				}
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestServerOpenLoopRate: a feasible fixed rate is sustained and the
// latency histogram sees every completion.
func TestServerOpenLoopRate(t *testing.T) {
	s, err := New(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rep, err := RunLoad(s, LoadOptions{
		Clients: 4, Rate: 2000, Duration: 250 * time.Millisecond, ROPct: 30, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := 2000 * 0.25
	if float64(rep.Offered) < want*0.5 {
		t.Fatalf("open loop under-offered: %d of ~%.0f", rep.Offered, want)
	}
	if rep.Completed+rep.Rejected+rep.Failed != rep.Offered {
		t.Fatalf("accounting leak: completed %d + rejected %d + failed %d != offered %d",
			rep.Completed, rep.Rejected, rep.Failed, rep.Offered)
	}
}

// wedge blocks n slots (each under a goroutine calling Do) inside
// transactions until release is closed; each Do's response arrives on done.
func wedge(t *testing.T, s *Server, n int) (release chan struct{}, done chan Response) {
	t.Helper()
	release = make(chan struct{})
	done = make(chan Response, n)
	for i := 0; i < n; i++ {
		go func() { done <- s.Do(&Request{Op: opProbe, probe: func(tm.Tx) { <-release }}) }()
	}
	// Wait until all n probes are actually running on slots.
	deadline := time.Now().Add(2 * time.Second)
	for s.leased() < n {
		if time.Now().After(deadline) {
			t.Fatalf("probes not picked up: leased=%d", s.leased())
		}
		time.Sleep(time.Millisecond)
	}
	return release, done
}

// TestServerQueueRejection: with every slot wedged, the parking places
// fill and Do sheds load with ErrQueueFull instead of buffering.
func TestServerQueueRejection(t *testing.T) {
	opt := testOptions()
	opt.Workers = 2
	opt.Queue = 2
	s, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	release, done := wedge(t, s, 2)

	// The slots are busy; the next Queue requests park, then rejection.
	parked := park(t, s, opt.Queue)
	if resp := s.Do(&Request{Op: OpQuery}); !errors.Is(resp.Err, ErrQueueFull) {
		t.Fatalf("over-capacity Do: got %v, want ErrQueueFull", resp.Err)
	}
	if g := s.Snapshot(); g.Rejected != 1 || g.QueueDepth != opt.Queue {
		t.Fatalf("gauges after rejection: %+v", g)
	}

	close(release)
	for i := 0; i < 2; i++ {
		if resp := <-done; resp.Err != nil {
			t.Fatalf("wedged request %d failed: %v", i, resp.Err)
		}
	}
	for i := 0; i < opt.Queue; i++ {
		if resp := <-parked; resp.Err != nil {
			t.Fatalf("parked request %d failed: %v", i, resp.Err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// park starts n goroutines each calling Do with a query and waits until all
// n are parked for a slot; their responses arrive on the returned channel.
func park(t *testing.T, s *Server, n int) chan Response {
	t.Helper()
	parked := make(chan Response, n)
	for i := 0; i < n; i++ {
		go func() { parked <- s.Do(&Request{Op: OpQuery}) }()
	}
	deadline := time.Now().Add(2 * time.Second)
	for s.Snapshot().QueueDepth < n {
		if time.Now().After(deadline) {
			t.Fatalf("Do calls did not park: %+v", s.Snapshot())
		}
		time.Sleep(time.Millisecond)
	}
	return parked
}

// TestServerStallWatchdog: a wedged pool with work in flight must trip the
// progress watchdog — pending and future requests fail with ErrStalled
// instead of the server hanging — and the post-mortem must reach the
// Diagnostics writer.
func TestServerStallWatchdog(t *testing.T) {
	var diag bytes.Buffer
	opt := testOptions()
	opt.System = "stm-lazy"
	opt.Workers = 2
	opt.ProgressTimeout = 30 * time.Millisecond
	opt.Diagnostics = &diag
	s, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	release, done := wedge(t, s, 2)

	deadline := time.Now().Add(5 * time.Second)
	for s.Err() == nil {
		if time.Now().After(deadline) {
			close(release)
			t.Fatal("watchdog never tripped")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !errors.Is(s.Err(), ErrStalled) {
		t.Fatalf("fatal error %v is not ErrStalled", s.Err())
	}
	if resp := s.Do(&Request{Op: OpQuery}); !errors.Is(resp.Err, ErrStalled) {
		t.Fatalf("post-stall Do: got %v, want ErrStalled", resp.Err)
	}

	close(release) // un-wedge so Close can join the workers
	for i := 0; i < 2; i++ {
		<-done
	}
	if err := s.Close(); !errors.Is(err, ErrStalled) {
		t.Fatalf("Close: got %v, want ErrStalled", err)
	}
	if !strings.Contains(diag.String(), "progress watchdog") {
		t.Fatalf("diagnostics missing watchdog post-mortem: %q", diag.String())
	}
}

// TestServerIdleNoFalseStall: an idle server commits nothing — that must
// NOT read as a stall (the batch watchdog's rule would misfire here).
func TestServerIdleNoFalseStall(t *testing.T) {
	opt := testOptions()
	opt.ProgressTimeout = 20 * time.Millisecond
	s, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond) // several idle windows
	if err := s.Err(); err != nil {
		t.Fatalf("idle server reported fatal error: %v", err)
	}
	if resp := s.Do(&Request{Op: OpQuery, Items: nil}); resp.Err != nil {
		t.Fatalf("request after idle period failed: %v", resp.Err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestServerStallFailsParkedRequests: requests parked behind wedged slots
// answer ErrStalled as soon as the watchdog trips, while the slots are
// still wedged — not only once the wedge lets go.
func TestServerStallFailsParkedRequests(t *testing.T) {
	opt := testOptions()
	opt.System = "stm-lazy"
	opt.Workers = 2
	opt.ProgressTimeout = 30 * time.Millisecond
	s, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	release, done := wedge(t, s, 2)
	defer func() {
		close(release)
		for i := 0; i < 2; i++ {
			<-done
		}
		s.Close()
	}()
	parked := park(t, s, 3)

	deadline := time.Now().Add(5 * time.Second)
	for s.Err() == nil {
		if time.Now().After(deadline) {
			t.Fatal("watchdog never tripped")
		}
		time.Sleep(5 * time.Millisecond)
	}
	timeout := time.After(2 * time.Second)
	for i := 0; i < 3; i++ {
		select {
		case resp := <-parked:
			if !errors.Is(resp.Err, ErrStalled) {
				t.Fatalf("parked request %d: got %v, want ErrStalled", i, resp.Err)
			}
		case <-timeout:
			t.Fatalf("%d of 3 parked requests answered within 2s of the stall", i)
		}
	}
	if g := s.Snapshot(); g.Inflight != 2 || g.QueueDepth != 0 || g.Failed != 3 {
		t.Fatalf("gauges after failing the parked requests: %+v", g)
	}
}

// TestIdleServerRunsNoGoroutines: without a watchdog, a server is slots and
// state only — requests run on their callers' goroutines.
func TestIdleServerRunsNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	s, err := New(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("New started %d goroutines", after-before)
	}
}

func TestServerDoAfterClose(t *testing.T) {
	s, err := New(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if resp := s.Do(&Request{Op: OpQuery}); !errors.Is(resp.Err, ErrClosed) {
		t.Fatalf("Do after close: got %v, want ErrClosed", resp.Err)
	}
	if err := s.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
}

// TestServerHTTP drives the JSON front-end end to end: operations, live
// stats, health, and the 503 load-shedding path.
func TestServerHTTP(t *testing.T) {
	opt := testOptions()
	opt.Workers = 2
	opt.Queue = 2
	s, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(path, body string) (int, apiResponse) {
		t.Helper()
		resp, err := ts.Client().Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out apiResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("%s: bad response body: %v", path, err)
		}
		return resp.StatusCode, out
	}

	if code, out := post("/reserve", `{"customer": 3, "items": [{"Typ":0,"ID":5},{"Typ":1,"ID":9}]}`); code != 200 || out.Error != "" {
		t.Fatalf("/reserve: %d %+v", code, out)
	}
	code, out := post("/query", `{"items": [{"Typ":0,"ID":5}]}`)
	if code != 200 || out.Torn != 0 || out.LatencyNs <= 0 {
		t.Fatalf("/query: %d %+v", code, out)
	}
	if code, _ := post("/cancel", `{"customer": 3}`); code != 200 {
		t.Fatalf("/cancel: %d", code)
	}
	if code, _ := post("/update", `{"updates": [{"Typ":2,"ID":4,"Add":true,"Num":1,"Price":80}]}`); code != 200 {
		t.Fatalf("/update: %d", code)
	}

	resp, err := ts.Client().Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var g Gauges
	if err := json.NewDecoder(resp.Body).Decode(&g); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if g.Served < 4 || g.Workers != 2 || g.Latency.Count < 4 {
		t.Fatalf("/stats gauges: %+v", g)
	}
	if hr, err := ts.Client().Get(ts.URL + "/healthz"); err != nil || hr.StatusCode != 200 {
		t.Fatalf("/healthz: %v %v", hr, err)
	} else {
		hr.Body.Close()
	}

	// Load shedding over HTTP: wedge both slots, fill the parking places,
	// and the next request must answer 503 with the queue-full error.
	release, done := wedge(t, s, 2)
	parked := park(t, s, opt.Queue)
	if code, out := post("/query", `{}`); code != 503 || !strings.Contains(out.Error, "queue full") {
		t.Fatalf("over-capacity POST: %d %+v", code, out)
	}
	close(release)
	for i := 0; i < 2; i++ {
		<-done
	}
	for i := 0; i < opt.Queue; i++ {
		<-parked
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}
