package thread

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestTeamRunsAllIDs(t *testing.T) {
	team := NewTeam(8)
	var mask atomic.Uint32
	team.Run(func(tid int) { mask.Or(1 << uint(tid)) })
	if mask.Load() != 0xff {
		t.Fatalf("mask = %#x", mask.Load())
	}
}

func TestTeamMinimumOne(t *testing.T) {
	team := NewTeam(0)
	if team.N() != 1 {
		t.Fatalf("N = %d", team.N())
	}
	ran := false
	team.Run(func(tid int) { ran = tid == 0 })
	if !ran {
		t.Fatal("body did not run with tid 0")
	}
}

func TestTeamPropagatesPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic to propagate")
		}
	}()
	NewTeam(4).Run(func(tid int) {
		if tid == 2 {
			panic("boom")
		}
	})
}

// TestBarrierPhases runs the barrier on both of its paths: 2 parties on 2
// Ps spin on the phase word, 6 parties on 1 or 2 Ps park on the cond.
func TestBarrierPhases(t *testing.T) {
	for _, c := range []struct{ parties, procs int }{{2, 2}, {6, 1}, {6, 2}} {
		t.Run(fmt.Sprintf("parties=%d/procs=%d", c.parties, c.procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(c.procs))
			if got, want := canSpin(c.parties), c.parties <= c.procs; got != want {
				t.Fatalf("canSpin(%d) at GOMAXPROCS %d = %v, want %v", c.parties, c.procs, got, want)
			}
			const phases = 50
			n := c.parties
			team := NewTeam(n)
			counters := make([]atomic.Int64, phases)
			team.Run(func(tid int) {
				for p := 0; p < phases; p++ {
					counters[p].Add(1)
					team.Barrier().Wait()
					// After the barrier, every party must have bumped this phase.
					if got := counters[p].Load(); got != int64(n) {
						t.Errorf("phase %d: counter %d after barrier", p, got)
					}
					team.Barrier().Wait()
				}
			})
		})
	}
}

// TestBarrierSpinThenPark: a spinning waiter whose peer arrives long after
// the spin budget ran out parks, and the late arrival still wakes it.
func TestBarrierSpinThenPark(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	team := NewTeam(2)
	var after atomic.Int64
	team.Run(func(tid int) {
		for p := 0; p < 3; p++ {
			if tid == 1 {
				time.Sleep(5 * time.Millisecond) // far past barrierSpins polls
			}
			team.Barrier().Wait()
			after.Add(1)
		}
	})
	if got := after.Load(); got != 6 {
		t.Fatalf("%d releases, want 6", got)
	}
}

// TestWaiterSpinRule pins when a Waiter spins: on one P a waiter for a
// second party yields from its first pause (the peer it waits for needs
// this P), a waiter whose parties all fit spins its whole budget first, and
// a waiter with no party count always yields. The peer runs only once the
// waiter yields the one P, so the pause count tells the two paths apart.
func TestWaiterSpinRule(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, c := range []struct {
		parties int
		spins   bool
	}{{2, false}, {1, true}, {0, false}} {
		var done atomic.Bool
		go done.Store(true)
		w := Waiter{Parties: c.parties}
		for !done.Load() {
			w.Pause()
		}
		if got := w.Polls(); (got > waitSpins) != c.spins {
			t.Errorf("Parties %d on one P: %d pauses before the peer ran; spun the %d-pause budget = %v, want %v",
				c.parties, got, waitSpins, got > waitSpins, c.spins)
		}
	}
}

func TestBarrierSingleParty(t *testing.T) {
	b := NewBarrier(1)
	for i := 0; i < 10; i++ {
		b.Wait() // must never block
	}
}
