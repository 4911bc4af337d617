package server

import (
	"errors"
	"strconv"
	"sync"
	"testing"
	"time"

	"github.com/stamp-go/stamp/internal/apps/vacation"
	"github.com/stamp-go/stamp/internal/mem"
)

// TestDoRunsInline: with a slot free, Do executes on the caller's
// goroutine — every request is counted Inline and the overflow queue is
// never touched.
func TestDoRunsInline(t *testing.T) {
	s, err := New(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const n = 200
	for i := 0; i < n; i++ {
		req := &Request{Op: OpQuery, Items: []vacation.Item{{Typ: i % vacation.NumTypes, ID: i%100 + 1}}}
		if i%2 == 1 {
			req = &Request{Op: OpReserve, Customer: i, Items: req.Items}
		}
		if resp := s.Do(req); resp.Err != nil || resp.Op != req.Op || resp.Latency <= 0 {
			t.Fatalf("request %d: %+v", i, resp)
		}
	}
	g := s.Snapshot()
	if g.Inline != n || g.Served != n || g.Failed != 0 || g.QueueHW != 0 || g.Inflight != 0 {
		t.Fatalf("gauges after %d sequential Do: %+v", n, g)
	}
	if g.Latency.Count != n || g.PerOp["query"].Count != n/2 || g.PerOp["reserve"].Count != n/2 {
		t.Fatalf("latency merged over the slots: all %d, per op %v", g.Latency.Count, g.PerOp)
	}
}

// TestDoOverflowsToQueue: with every slot wedged Do parks in the bounded
// queue, the Queue+1-th admission is shed, and everything answers once the
// slots come back.
func TestDoOverflowsToQueue(t *testing.T) {
	opt := testOptions()
	opt.Workers = 2
	opt.Queue = 3
	s, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	release, wedged := wedge(t, s, opt.Workers)

	parked := make(chan Response, opt.Queue)
	for i := 0; i < opt.Queue; i++ {
		go func() { parked <- s.Do(&Request{Op: OpQuery}) }()
	}
	deadline := time.Now().Add(2 * time.Second)
	for s.Snapshot().QueueDepth < opt.Queue {
		if time.Now().After(deadline) {
			t.Fatalf("Do calls did not park: %+v", s.Snapshot())
		}
		time.Sleep(time.Millisecond)
	}
	if err := s.Submit(&Request{Op: OpQuery}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("Submit past the queue bound: got %v, want ErrQueueFull", err)
	}
	if resp := s.Do(&Request{Op: OpQuery}); !errors.Is(resp.Err, ErrQueueFull) {
		t.Fatalf("Do past the queue bound: got %v, want ErrQueueFull", resp.Err)
	}

	close(release)
	for i := 0; i < opt.Workers; i++ {
		if resp := <-wedged; resp.Err != nil {
			t.Fatalf("wedged request %d: %v", i, resp.Err)
		}
	}
	for i := 0; i < opt.Queue; i++ {
		if resp := <-parked; resp.Err != nil {
			t.Fatalf("parked Do %d: %v", i, resp.Err)
		}
	}
	g := s.Snapshot()
	if g.Inline != 0 || g.Rejected != 2 || int(g.QueueHW) != opt.Queue || int(g.Served) != opt.Workers+opt.Queue {
		t.Fatalf("gauges after the overflow: %+v", g)
	}
	// The slots are free again: the next Do is inline.
	if resp := s.Do(&Request{Op: OpQuery}); resp.Err != nil || s.Snapshot().Inline != 1 {
		t.Fatalf("Do after the overflow: %+v, gauges %+v", resp, s.Snapshot())
	}
}

// TestDoRacesClose: a Do racing Close either completes or answers
// ErrClosed, Close waits for the ones running on their callers'
// goroutines, and nothing hangs.
func TestDoRacesClose(t *testing.T) {
	for round := 0; round < 20; round++ {
		opt := testOptions()
		opt.Workers = 2
		s, err := New(opt)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		var inFlight sync.WaitGroup
		inFlight.Add(4)
		for c := 0; c < 4; c++ { // more callers than slots: both paths race Close
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; ; i++ {
					resp := s.Do(&Request{Op: OpReserve, Customer: c + 1, Items: []vacation.Item{{Typ: 0, ID: i%50 + 1}}})
					if i == 0 {
						inFlight.Done()
					}
					if errors.Is(resp.Err, ErrClosed) {
						return
					}
					if resp.Err != nil && !errors.Is(resp.Err, ErrQueueFull) {
						t.Errorf("Do racing Close: %v", resp.Err)
						return
					}
				}
			}()
		}
		inFlight.Wait()
		closed := make(chan error, 1)
		go func() { closed <- s.Close() }()
		select {
		case err := <-closed:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("Close hung behind racing Do calls")
		}
		// Close has returned: nothing runs any more, so the store may be
		// read without synchronization.
		if err := s.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		if resp := s.Do(&Request{Op: OpQuery}); !errors.Is(resp.Err, ErrClosed) {
			t.Fatalf("Do after Close: got %v, want ErrClosed", resp.Err)
		}
	}
}

// TestDoQueryAllocatesNothing: the inline path builds no closure, channel or
// escaping response per request — the block bodies are bound to the slot
// once.
func TestDoQueryAllocatesNothing(t *testing.T) {
	s, err := New(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	req := &Request{Op: OpQuery, Items: []vacation.Item{{Typ: 0, ID: 1}, {Typ: 1, ID: 2}, {Typ: 2, ID: 3}}}
	if allocs := testing.AllocsPerRun(1000, func() {
		if resp := s.Do(req); resp.Err != nil {
			t.Fatal(resp.Err)
		}
	}); allocs != 0 {
		t.Fatalf("inline OpQuery Do allocates %v times a request, want 0", allocs)
	}
}

// TestNewRefusesArenaBelowStore is the fail-fast regression: an ArenaWords
// too small for the store used to panic inside vacation.NewStore ("mem:
// arena exhausted (cap 4096 words, need 4098)").
func TestNewRefusesArenaBelowStore(t *testing.T) {
	if _, err := New(Options{Records: 1024, ArenaWords: 4096}); !errors.Is(err, ErrArenaFull) {
		t.Fatalf("New with a 4096-word arena for 1024 records: got %v, want ErrArenaFull", err)
	}
	// One word under the floor is refused; the floor itself holds the store
	// and serves.
	floor := minArenaWords(64, 2)
	if _, err := New(Options{Workers: 2, Records: 64, ArenaWords: floor - 1}); !errors.Is(err, ErrArenaFull) {
		t.Fatalf("New one word under the floor: got %v, want ErrArenaFull", err)
	}
	s, err := New(Options{Workers: 2, Records: 64, ArenaWords: floor})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if used, store := s.Snapshot().ArenaUsed, floor-2*opSlackWords; used > store {
		t.Fatalf("NewStore used %d words, the floor budgets %d", used, store)
	}
	if resp := s.Do(&Request{Op: OpQuery, Items: []vacation.Item{{Typ: 0, ID: 1}}}); resp.Err != nil {
		t.Fatal(resp.Err)
	}
}

// TestNewRefusesArenaBeyondAddrRange: an arena too large to address is an
// error from New, not a panic from mem.NewArena.
func TestNewRefusesArenaBeyondAddrRange(t *testing.T) {
	if strconv.IntSize < 64 {
		t.Skip("2^32 words need a 64-bit int")
	}
	if _, err := New(Options{Records: 64, ArenaWords: int(uint64(mem.MaxWords) + 1)}); err == nil {
		t.Fatal("New accepted an arena of 2^32 words")
	}
}
