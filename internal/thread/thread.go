// Package thread provides the fork/join thread team and reusable barrier
// that STAMP's applications are written against (the original suite uses a
// small pthread wrapper with thread_startup/thread_start and thread_barrier).
// A "thread" here is a goroutine with a stable id in [0, N).
//
// It also owns how a thread waits for a peer: the barrier and Waiter, the
// pacing helper of every wait-for-peer loop in the TM runtimes, spin only
// while every party can hold a P at once, and otherwise park or yield.
package thread

import (
	"context"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
)

// Team runs parallel phases over a fixed number of workers.
type Team struct {
	n       int
	barrier *Barrier
	labels  []string // pprof label pairs applied to every worker goroutine
}

// NewTeam returns a team of n workers (n >= 1).
func NewTeam(n int) *Team {
	if n < 1 {
		n = 1
	}
	return &Team{n: n, barrier: NewBarrier(n)}
}

// N returns the team size.
func (t *Team) N() int { return t.n }

// SetLabels attaches pprof label pairs (key, value, key, value, ...) to
// every worker goroutine of subsequent Run calls, plus a per-worker
// "thread" label. CPU and goroutine profiles then break down by app,
// system, and worker instead of one anonymous blob.
func (t *Team) SetLabels(kv ...string) { t.labels = kv }

// Run invokes body(tid) on n goroutines with tid = 0..n-1 and waits for all
// of them. Panics in workers are re-raised on the caller.
func (t *Team) Run(body func(tid int)) {
	var wg sync.WaitGroup
	panics := make([]any, t.n)
	for tid := 0; tid < t.n; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panics[tid] = r
				}
			}()
			kv := append(append([]string{}, t.labels...), "thread", strconv.Itoa(tid))
			pprof.Do(context.Background(), pprof.Labels(kv...), func(context.Context) {
				body(tid)
			})
		}(tid)
	}
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
}

// Barrier returns the team's reusable barrier; workers call Wait between
// phases, exactly like STAMP's thread_barrier.
func (t *Team) Barrier() *Barrier { return t.barrier }

// Barrier is a reusable (cyclic) barrier for a fixed party count.
type Barrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	parties int
	waiting int           // arrivals this phase, under mu
	phase   atomic.Uint64 // bumped under mu by the last arrival
}

// barrierSpins bounds how many times a waiter polls the phase word before
// it parks: ~250 µs at ~1 ns a poll. On the reference host's kmeans cells
// (two threads, 1000 barriers a run) a budget of 2^16 polls still parked
// on 40 % of the waits — the halves of an iteration differ by more when
// aborts and backoff hit one thread — and 2^18 on 1-5 %.
const barrierSpins = 1 << 18

// NewBarrier returns a barrier for n parties.
func NewBarrier(n int) *Barrier {
	b := &Barrier{parties: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// Wait blocks until all parties have called Wait, then releases them all.
// The barrier is immediately reusable for the next phase.
//
// A waiter polls the phase word for a bounded budget before it parks on
// the cond, but only when every party can hold a P at once (see canSpin):
// then the last arrival is running on another P and a park plus wake-up
// through the scheduler costs more than the wait. Oversubscribed, a waiter
// parks at once, as it always did.
func (b *Barrier) Wait() {
	b.mu.Lock()
	phase := b.phase.Load()
	b.waiting++
	if b.waiting == b.parties {
		b.waiting = 0
		b.phase.Add(1)
		b.cond.Broadcast()
		b.mu.Unlock()
		return
	}
	b.mu.Unlock()
	if canSpin(b.parties) {
		for i := 0; i < barrierSpins; i++ {
			if b.phase.Load() != phase {
				return
			}
		}
	}
	// The phase only moves under mu, and the Broadcast with it, so a waiter
	// that finds it unchanged here cannot miss the wake-up.
	b.mu.Lock()
	for b.phase.Load() == phase {
		b.cond.Wait()
	}
	b.mu.Unlock()
}
