package factory

import (
	"runtime"
	"testing"

	"github.com/stamp-go/stamp/internal/mem"
	"github.com/stamp-go/stamp/internal/rng"
	"github.com/stamp-go/stamp/internal/thread"
	"github.com/stamp-go/stamp/internal/tm"
)

// Atomic-block call sites for the fuzz workload. The snapshot-sum block
// carries the read-only mark so stm-mv serves it from the begin-timestamp
// snapshot (ring lookups included) and NOrec runs its first attempt
// without a read log; every other runtime ignores the mark and the
// block behaves like a plain reader.
var (
	blkFuzzSum  = tm.NewROBlock("opacity-fuzz/snapshot-sum")
	blkFuzzXfer = tm.NewBlock("opacity-fuzz/transfer")
)

// TestOpacityFuzz is the cross-runtime opacity fuzz suite: randomized
// concurrent transfers between accounts, interleaved with read-only
// sum transactions, swept over every registered concurrent runtime. Two
// oracles check the histories:
//
//   - Conserved sum: transfers move value but never create or destroy it,
//     so the direct post-run sum must equal the initial total.
//   - Per-transaction snapshot consistency, captured via read-recording:
//     each read-only block records the values its committed attempt loaded;
//     if they were not one consistent snapshot their sum differs from the
//     total. This is the opacity oracle — a runtime that lets a reader see
//     account A before a transfer and account B after it fails here.
//
// The config pins MVVersions to a small ring so stm-mv readers are forced
// through the version-ring lookup constantly (writers outrun the snapshot,
// rings overflow, mv-version-missing retries fire) rather than staying on
// the easy arena fast path. The transaction bodies yield at random points:
// on the few-core machines tests run on, goroutines otherwise interleave
// only at ~10ms preemption boundaries and short transactions almost never
// overlap — the yields are what make writer commits land between a
// reader's loads, which is the window every oracle violation needs.
//
// Mutation-tested: this suite was verified to catch a deliberately broken
// mv ring. Either of these single-line mutations in ringScan's filter
// (internal/tm/mv/mv.go) makes the stm-mv case fail within one run, with
// hundreds of torn snapshots:
//
//   - Off-by-one in the snapshot bound (`v1 > rv+2` instead of `v1 > rv+1`),
//     admitting a version committed after the snapshot: the reader sums a
//     future value of one account against present values of the rest.
//   - Broken newest-record selection (`best != 0` instead of `v1 <= best`,
//     first-found-wins): the reader is served a stale older version of an
//     account whose newer committed value was also within the snapshot.
//
// Likewise for NOrec's log-free first attempts: skipping the seq compare in
// a log-free Load (internal/tm/norec/norec.go) fails the stm-norec case
// with hundreds of torn snapshots.
func TestOpacityFuzz(t *testing.T) {
	const (
		threads  = 4
		accounts = 8
		total    = 4096
		perT     = 3000
	)
	for _, name := range concurrentNames() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			arena := mem.NewArena(1 << 12)
			accs := make([]mem.Addr, accounts)
			for i := range accs {
				accs[i] = arena.Alloc(1)
				arena.Store(accs[i], total/accounts)
			}
			sys, err := New(name, tm.Config{
				Arena: arena, Threads: threads,
				MVVersions: 4, // tiny rings: force stm-mv through overflow + retry
				// The yields make the eager in-place runtimes livelock-prone
				// (attempts perpetually killing each other — the simulated
				// HTMs default to no contention manager at all), so every
				// runtime gets the serialize fallback, which guarantees
				// progress without muting any conflict.
				CM: "serialize", SerializeAfter: 3,
			})
			if err != nil {
				t.Fatalf("New(%s): %v", name, err)
			}
			var torn [threads]int64
			team := thread.NewTeam(threads)
			team.Run(func(tid int) {
				th := sys.Thread(tid)
				r := rng.New(uint64(tid)*2654435761 + 99)
				for i := 0; i < perT; i++ {
					if r.Intn(3) == 0 {
						// Read-only sum at a snapshot; judge the recorded
						// reads only if the attempt committed.
						var sum uint64
						th.AtomicAt(blkFuzzSum, func(tx tm.Tx) {
							sum = 0
							for _, a := range accs {
								sum += tx.Load(a)
								if r.Intn(2) == 0 {
									runtime.Gosched()
								}
							}
						})
						if sum != total {
							torn[tid]++
						}
						continue
					}
					from, to := r.Intn(accounts), r.Intn(accounts)
					amount := uint64(r.Intn(7))
					th.AtomicAt(blkFuzzXfer, func(tx tm.Tx) {
						f := tx.Load(accs[from])
						if f < amount {
							return
						}
						if r.Intn(4) == 0 {
							runtime.Gosched()
						}
						tx.Store(accs[from], f-amount)
						tx.Store(accs[to], tx.Load(accs[to])+amount)
					})
				}
			})
			for tid, v := range torn {
				if v != 0 {
					t.Errorf("thread %d committed %d inconsistent snapshots", tid, v)
				}
			}
			var sum uint64
			for _, a := range accs {
				sum += arena.Load(a)
			}
			if sum != total {
				t.Errorf("final sum = %d, want %d (value created or destroyed)", sum, total)
			}
			st := sys.Stats()
			if st.Total.Commits != threads*perT {
				t.Errorf("commits = %d, want %d", st.Total.Commits, threads*perT)
			}
			if unattr := st.AbortCauses()[tm.CauseUnknown]; unattr != 0 {
				t.Errorf("%d aborts left unattributed (CauseUnknown)", unattr)
			}
		})
	}
}
