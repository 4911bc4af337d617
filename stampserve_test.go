package stamp_test

import (
	"errors"
	"testing"
	"time"

	"github.com/stamp-go/stamp"
)

// TestServeEndToEnd exercises the public serving-mode surface: Serve,
// Do, RunLoad, live gauges, and invariant checking.
func TestServeEndToEnd(t *testing.T) {
	srv, err := stamp.Serve(stamp.ServerOptions{
		Workers: 2, Records: 256, OpBudget: 1 << 14, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.System() != "stm-norec" {
		t.Fatalf("default system = %q, want stm-norec", srv.System())
	}

	rep, err := stamp.RunLoad(srv, stamp.LoadOptions{
		Clients: 4, Duration: 80 * time.Millisecond, ROPct: 40, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed == 0 || rep.Failed != 0 || rep.Torn != 0 {
		t.Fatalf("load report: %+v", rep)
	}
	if rep.Latency.P99Ns == 0 || rep.Latency.P99Ns > rep.Latency.P999Ns {
		t.Fatalf("latency summary: %+v", rep.Latency)
	}

	resp := srv.Do(&stamp.ServerRequest{Op: stamp.OpQuery})
	if resp.Err != nil || resp.Op != stamp.OpQuery {
		t.Fatalf("Do response: %+v", resp)
	}
	if g := srv.Snapshot(); g.Served == 0 || g.Inline == 0 || g.QueueCap == 0 {
		t.Fatalf("gauges: %+v", g)
	}
	if err := srv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestServeRejectsInvalidOptions: Serve must surface every bad field at
// once, and ErrQueueFull must be matchable through the public alias.
func TestServeRejectsInvalidOptions(t *testing.T) {
	_, err := stamp.Serve(stamp.ServerOptions{Workers: -1, CM: "nope"})
	if err == nil {
		t.Fatal("invalid ServerOptions accepted")
	}
	if errors.Is(err, stamp.ErrQueueFull) {
		t.Fatal("validation error must not wrap ErrQueueFull")
	}
	if _, err := stamp.RunLoad(nil, stamp.LoadOptions{Clients: -1}); err == nil {
		t.Fatal("invalid LoadOptions accepted")
	}
}
