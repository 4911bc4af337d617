package norec

import (
	"testing"

	"github.com/stamp-go/stamp/internal/mem"
	"github.com/stamp-go/stamp/internal/rng"
	"github.com/stamp-go/stamp/internal/thread"
	"github.com/stamp-go/stamp/internal/tm"
)

func newSysT(t *testing.T, arena *mem.Arena, threads int) *System {
	t.Helper()
	sys, err := New(tm.Config{Arena: arena, Threads: threads})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(tm.Config{Threads: 1}); err == nil {
		t.Fatal("expected error for nil arena")
	}
	if _, err := New(tm.Config{Arena: mem.NewArena(64), Threads: 100}); err == nil {
		t.Fatal("expected error for >64 threads")
	}
}

func TestNames(t *testing.T) {
	if sys := newSysT(t, mem.NewArena(64), 1); sys.Name() != "stm-norec" {
		t.Fatalf("Name() = %q", sys.Name())
	}
}

// TestWriterCommitTicksSeqByTwo: each writer commit acquires (odd) and
// releases (next even) the sequence lock, so seq advances by exactly 2 and
// always rests even.
func TestWriterCommitTicksSeqByTwo(t *testing.T) {
	arena := mem.NewArena(1 << 10)
	a := arena.Alloc(1)
	sys := newSysT(t, arena, 1)
	before := sys.Seq()
	sys.Thread(0).Atomic(func(tx tm.Tx) { tx.Store(a, 1) })
	after := sys.Seq()
	if after != before+2 {
		t.Fatalf("seq moved %d, want 2", after-before)
	}
	if after&1 != 0 {
		t.Fatal("seq rests odd after commit")
	}
	if got := sys.LockAcquires(); got != 1 {
		t.Fatalf("lock acquires = %d, want 1", got)
	}
}

// TestROFastPathSkipsLock: read-only transactions commit without ever
// touching the sequence lock, however many threads run them.
func TestROFastPathSkipsLock(t *testing.T) {
	const threads = 4
	const perT = 500
	arena := mem.NewArena(1 << 10)
	a := arena.Alloc(1)
	arena.Store(a, 7)
	sys := newSysT(t, arena, threads)
	team := thread.NewTeam(threads)
	team.Run(func(tid int) {
		th := sys.Thread(tid)
		for i := 0; i < perT; i++ {
			th.Atomic(func(tx tm.Tx) {
				if tx.Load(a) != 7 {
					t.Errorf("read %d, want 7", tx.Load(a))
				}
			})
		}
	})
	if st := sys.Stats(); st.Total.Commits != threads*perT {
		t.Fatalf("commits = %d", st.Total.Commits)
	}
	if acq := sys.LockAcquires(); acq != 0 {
		t.Fatalf("read-only txs acquired the lock %d times", acq)
	}
	if sys.Seq() != 0 {
		t.Fatalf("read-only txs ticked the clock to %d", sys.Seq())
	}
}

// TestStoreFreeCommitIsFree: an unmarked block keeps a read log, and when it
// stores nothing it still commits with no CAS and no tick — alone, and after
// a peer's writer commit lands mid-attempt and makes it revalidate. The
// peer's writer commit ticks as always.
func TestStoreFreeCommitIsFree(t *testing.T) {
	arena := mem.NewArena(1 << 10)
	a := arena.Alloc(1)
	b := arena.Alloc(1)
	sys := newSysT(t, arena, 2)
	sys.Thread(0).Atomic(func(tx tm.Tx) { _ = tx.Load(a) })
	if acq, seq := sys.LockAcquires(), sys.Seq(); acq != 0 || seq != 0 {
		t.Fatalf("store-free commit: lock acquires %d, seq %d; want 0, 0", acq, seq)
	}
	ready := make(chan struct{})
	done := make(chan struct{})
	var sawB uint64
	thread.NewTeam(2).Run(func(tid int) {
		th := sys.Thread(tid)
		if tid == 1 {
			<-ready
			th.Atomic(func(tx tm.Tx) { tx.Store(b, 1) })
			close(done)
			return
		}
		attempt := 0
		th.Atomic(func(tx tm.Tx) {
			attempt++
			_ = tx.Load(a)
			if attempt == 1 {
				close(ready)
				<-done // the peer's writer commit ticks seq here
			}
			sawB = tx.Load(b) // seq moved: revalidates {a} and adopts seq 2
		})
	})
	if sawB != 1 {
		t.Fatalf("reader saw b = %d after the peer's commit, want 1", sawB)
	}
	if aborts := sys.Stats().Total.Aborts; aborts != 0 {
		t.Fatalf("aborts = %d, want 0 (the writer touched nothing the reader had read)", aborts)
	}
	if acq, seq := sys.LockAcquires(), sys.Seq(); acq != 1 || seq != 2 {
		t.Fatalf("lock acquires %d, seq %d; want 1, 2: only the writer commit takes the lock", acq, seq)
	}
}

// TestValueValidationToleratesSilentStore: a concurrent commit that writes
// back the value a reader already observed must not abort the reader —
// the NOrec property version-based STMs (TL2) do not have.
func TestValueValidationToleratesSilentStore(t *testing.T) {
	arena := mem.NewArena(1 << 10)
	a := arena.Alloc(1)
	b := arena.Alloc(1)
	arena.Store(a, 5)
	sys := newSysT(t, arena, 2)
	team := thread.NewTeam(2)
	ready := make(chan struct{})
	done := make(chan struct{})
	team.Run(func(tid int) {
		th := sys.Thread(tid)
		if tid == 0 {
			th.Atomic(func(tx tm.Tx) {
				_ = tx.Load(a)
				select {
				case <-ready:
				default:
					close(ready)
				}
				<-done // hold the tx open across the silent store's commit
				// The clock moved, so this load revalidates the read set by
				// value; (a, 5) still matches.
				tx.Store(b, tx.Load(a))
			})
		} else {
			<-ready
			th.Atomic(func(tx tm.Tx) { tx.Store(a, 5) }) // silent store
			close(done)
		}
	})
	if arena.Load(b) != 5 {
		t.Fatalf("b = %d", arena.Load(b))
	}
	if aborts := sys.Stats().Total.Aborts; aborts != 0 {
		t.Fatalf("silent store aborted the reader: %d aborts", aborts)
	}
}

// TestConflictingCommitAbortsReader: the mirror image — a commit that
// changes an observed value must abort the still-running reader.
func TestConflictingCommitAbortsReader(t *testing.T) {
	arena := mem.NewArena(1 << 10)
	a := arena.Alloc(1)
	arena.Store(a, 5)
	sys := newSysT(t, arena, 2)
	team := thread.NewTeam(2)
	ready := make(chan struct{})
	done := make(chan struct{})
	team.Run(func(tid int) {
		th := sys.Thread(tid)
		if tid == 0 {
			attempt := 0
			th.Atomic(func(tx tm.Tx) {
				attempt++
				v := tx.Load(a)
				if attempt == 1 {
					close(ready)
					<-done
					// Revalidation on this load must observe the mismatch and
					// restart the block.
					_ = tx.Load(a)
					t.Error("zombie attempt survived a conflicting commit")
				}
				if attempt > 1 && v != 9 {
					t.Errorf("retry read %d, want 9", v)
				}
			})
		} else {
			<-ready
			th.Atomic(func(tx tm.Tx) { tx.Store(a, 9) })
			close(done)
		}
	})
	if aborts := sys.Stats().Total.Aborts; aborts != 1 {
		t.Fatalf("aborts = %d, want 1", aborts)
	}
}

// TestPeekAndEarlyRelease: Peek does not see buffered writes; EarlyRelease
// is a no-op that leaves commit behaviour unchanged.
func TestPeekAndEarlyRelease(t *testing.T) {
	arena := mem.NewArena(1 << 10)
	a := arena.Alloc(1)
	arena.Store(a, 5)
	sys := newSysT(t, arena, 1)
	sys.Thread(0).Atomic(func(tx tm.Tx) {
		tx.Store(a, 6)
		if got := tx.Peek(a); got != 5 {
			t.Errorf("Peek saw buffered write: %d", got)
		}
		tx.EarlyRelease(a) // no-op; must not disturb the write set
	})
	if got := arena.Load(a); got != 6 {
		t.Fatalf("final = %d", got)
	}
}

// TestCounterLinearizable: the basic linearizability smoke test — blind
// concurrent increments lose no updates.
func TestCounterLinearizable(t *testing.T) {
	const threads = 8
	const perT = 2000
	arena := mem.NewArena(1 << 10)
	c := arena.Alloc(1)
	sys := newSysT(t, arena, threads)
	team := thread.NewTeam(threads)
	team.Run(func(tid int) {
		th := sys.Thread(tid)
		for i := 0; i < perT; i++ {
			th.Atomic(func(tx tm.Tx) {
				tx.Store(c, tx.Load(c)+1)
			})
		}
	})
	if got := arena.Load(c); got != threads*perT {
		t.Fatalf("counter = %d, want %d", got, threads*perT)
	}
}

// TestSnapshotConsistency: readers scanning a multi-word invariant under
// concurrent transfers must never observe a torn total (opacity via
// value-based revalidation).
func TestSnapshotConsistency(t *testing.T) {
	const (
		threads  = 8
		accounts = 16
		total    = 1000
		perT     = 1200
	)
	arena := mem.NewArena(1 << 12)
	accs := make([]mem.Addr, accounts)
	for i := range accs {
		accs[i] = arena.Alloc(1)
	}
	arena.Store(accs[0], total)
	sys := newSysT(t, arena, threads)
	team := thread.NewTeam(threads)
	var torn [threads]int64
	team.Run(func(tid int) {
		th := sys.Thread(tid)
		r := rng.New(uint64(tid) + 99)
		for i := 0; i < perT; i++ {
			if i%4 == 0 {
				th.Atomic(func(tx tm.Tx) {
					var sum uint64
					for _, a := range accs {
						sum += tx.Load(a)
					}
					if sum != total {
						torn[tid]++
					}
				})
				continue
			}
			from, to := r.Intn(accounts), r.Intn(accounts)
			amount := uint64(r.Intn(4))
			th.Atomic(func(tx tm.Tx) {
				f := tx.Load(accs[from])
				if f < amount {
					return
				}
				tx.Store(accs[from], f-amount)
				tx.Store(accs[to], tx.Load(accs[to])+amount)
			})
		}
	})
	for tid, v := range torn {
		if v != 0 {
			t.Fatalf("thread %d observed %d torn snapshots", tid, v)
		}
	}
	var sum uint64
	for _, a := range accs {
		sum += arena.Load(a)
	}
	if sum != total {
		t.Fatalf("total = %d, want %d", sum, total)
	}
}

// TestStatsAccounting: commit/abort/barrier accounting lines up on a
// contended workload, and contention actually produces aborts (nonzero
// retries) at 8 threads. The spin between load and store yields to the
// scheduler, so transactions interleave even on a single-CPU host.
func TestStatsAccounting(t *testing.T) {
	const threads = 8
	const perT = 200
	arena := mem.NewArena(1 << 10)
	hot := arena.Alloc(1)
	sys := newSysT(t, arena, threads)
	team := thread.NewTeam(threads)
	team.Run(func(tid int) {
		th := sys.Thread(tid)
		for i := 0; i < perT; i++ {
			th.Atomic(func(tx tm.Tx) {
				v := tx.Load(hot)
				tm.Spin(1200) // widen the conflict window across a Gosched
				tx.Store(hot, v+1)
			})
		}
	})
	st := sys.Stats()
	if st.Total.Starts != threads*perT || st.Total.Commits != threads*perT {
		t.Fatalf("starts/commits = %d/%d", st.Total.Starts, st.Total.Commits)
	}
	if st.Total.Loads != threads*perT || st.Total.Stores != threads*perT {
		t.Fatalf("committed barriers = %d/%d, want %d each", st.Total.Loads, st.Total.Stores, threads*perT)
	}
	if st.Total.Aborts == 0 {
		t.Fatal("hot counter at 8 threads produced zero aborts")
	}
	if st.Total.Wasted == 0 {
		t.Fatal("aborts recorded but no wasted barriers")
	}
	if st.Total.LoadsHist.N() != threads*perT {
		t.Fatalf("hist N = %d", st.Total.LoadsHist.N())
	}
}
