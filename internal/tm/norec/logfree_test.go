package norec

import (
	"testing"

	"github.com/stamp-go/stamp/internal/mem"
	"github.com/stamp-go/stamp/internal/thread"
	"github.com/stamp-go/stamp/internal/tm"
)

// Marked (read-mostly) call sites of the log-free tests; one per test, so
// per-block rows never mix.
var (
	blkLFSum     = tm.NewROBlock("norec-test/log-free-sum")
	blkLFPeer    = tm.NewROBlock("norec-test/log-free-peer-commit")
	blkLFSilent  = tm.NewROBlock("norec-test/log-free-silent-store")
	blkLFStore   = tm.NewROBlock("norec-test/log-free-store")
	blkLFStoreCx = tm.NewROBlock("norec-test/log-free-store-contended")
)

// seqChangedOnly fails unless the run aborted exactly want times, every one
// with seq-changed — the only cause either kind of NOrec attempt has.
func seqChangedOnly(t *testing.T, sys *System, want uint64) {
	t.Helper()
	st := sys.Stats()
	if st.Total.Aborts != want {
		t.Fatalf("aborts = %d, want %d", st.Total.Aborts, want)
	}
	if got := st.AbortCauses()[tm.CauseSeqChanged]; got != want {
		t.Fatalf("seq-changed aborts = %d of %d: %v", got, want, st.AbortCauses())
	}
}

// TestLogFreeFirstAttempt: a marked block's first attempt keeps no read log
// and commits without touching the sequence lock — no acquisition, no tick.
// The same body in an unmarked block logs every read, and, storing nothing,
// commits lock-free too.
func TestLogFreeFirstAttempt(t *testing.T) {
	arena := mem.NewArena(1 << 10)
	accs := []mem.Addr{arena.Alloc(1), arena.Alloc(1), arena.Alloc(1)}
	for i, a := range accs {
		arena.Store(a, uint64(10*(i+1)))
	}
	sys := newSysT(t, arena, 1)
	x := sys.Txs[0]
	sum := func(tx tm.Tx) (s uint64) {
		for _, a := range accs {
			s += tx.Load(a)
		}
		return s
	}
	sys.Thread(0).AtomicAt(blkLFSum, func(tx tm.Tx) {
		if s := sum(tx); s != 60 {
			t.Errorf("sum = %d, want 60", s)
		}
		if !x.logFree || x.rset.Len() != 0 {
			t.Errorf("marked first attempt: logFree=%v, %d reads logged, want true, 0",
				x.logFree, x.rset.Len())
		}
	})
	if acq, seq := sys.LockAcquires(), sys.Seq(); acq != 0 || seq != 0 {
		t.Fatalf("log-free commit took the lock: acquisitions %d, seq %d", acq, seq)
	}
	sys.Thread(0).Atomic(func(tx tm.Tx) {
		sum(tx)
		if x.logFree || x.rset.Len() != len(accs) {
			t.Errorf("unmarked attempt: logFree=%v, %d reads logged, want false, %d",
				x.logFree, x.rset.Len(), len(accs))
		}
	})
	if acq, seq := sys.LockAcquires(), sys.Seq(); acq != 0 || seq != 0 {
		t.Fatalf("unmarked read-only commit took the lock: acquisitions %d, seq %d", acq, seq)
	}
	seqChangedOnly(t, sys, 0)
}

// TestLogFreeAbortsOnceOnPeerCommit: a peer commit between two loads of a
// log-free attempt aborts it — it has no read log to revalidate — exactly
// once, with seq-changed, and the retry is an ordinary logged attempt that
// reads the committed value. The ready/done pattern of
// TestConflictingCommitAbortsReader makes the interleaving deterministic.
// Mutation-checked: with the seq compare dropped from the log-free Load,
// this test and factory's TestOpacityFuzz both fail.
func TestLogFreeAbortsOnceOnPeerCommit(t *testing.T) {
	arena := mem.NewArena(1 << 10)
	a, b := arena.Alloc(1), arena.Alloc(1)
	arena.Store(a, 5)
	sys := newSysT(t, arena, 2)
	ready := make(chan struct{})
	done := make(chan struct{})
	var seen uint64
	thread.NewTeam(2).Run(func(tid int) {
		th := sys.Thread(tid)
		if tid == 1 {
			<-ready
			th.Atomic(func(tx tm.Tx) { tx.Store(a, 9) })
			close(done)
			return
		}
		attempt := 0
		th.AtomicAt(blkLFPeer, func(tx tm.Tx) {
			attempt++
			x := sys.Txs[0]
			if x.logFree != (attempt == 1) {
				t.Errorf("attempt %d: logFree = %v", attempt, x.logFree)
			}
			_ = tx.Load(b)
			if attempt == 1 {
				close(ready)
				<-done
			}
			seen = tx.Load(a) // the first attempt must abort here
			if attempt == 1 {
				t.Errorf("log-free attempt survived a peer commit (read %d)", seen)
			}
		})
	})
	if seen != 9 {
		t.Fatalf("retry read %d, want the committed 9", seen)
	}
	seqChangedOnly(t, sys, 1)
}

// TestLogFreeAbortsOnSilentStore is the trade-off against
// TestValueValidationToleratesSilentStore: a peer commit that writes back
// the value the reader already saw leaves a logged attempt running (value
// validation still matches), but aborts a log-free one, which cannot tell a
// silent store from a real one — it only sees seq move. The retry is logged
// and commits.
func TestLogFreeAbortsOnSilentStore(t *testing.T) {
	arena := mem.NewArena(1 << 10)
	a, b := arena.Alloc(1), arena.Alloc(1)
	arena.Store(a, 5)
	sys := newSysT(t, arena, 2)
	ready := make(chan struct{})
	done := make(chan struct{})
	thread.NewTeam(2).Run(func(tid int) {
		th := sys.Thread(tid)
		if tid == 1 {
			<-ready
			th.Atomic(func(tx tm.Tx) { tx.Store(a, 5) }) // silent store
			close(done)
			return
		}
		attempt := 0
		th.AtomicAt(blkLFSilent, func(tx tm.Tx) {
			attempt++
			_ = tx.Load(a)
			if attempt == 1 {
				close(ready)
				<-done
			}
			tx.Store(b, tx.Load(a))
		})
	})
	if got := arena.Load(b); got != 5 {
		t.Fatalf("b = %d, want 5", got)
	}
	seqChangedOnly(t, sys, 1)
}

// TestLogFreeAttemptThatStores: the mark is a hint, so a marked block may
// store. Uncontended, its log-free attempt commits like any writer — one
// lock acquisition, seq +2. When a peer commits between its begin and its
// commit, the CAS from the begin snapshot fails and, with no read log to
// move the snapshot forward, the attempt aborts once with seq-changed; the
// logged retry commits.
func TestLogFreeAttemptThatStores(t *testing.T) {
	t.Run("uncontended", func(t *testing.T) {
		arena := mem.NewArena(1 << 10)
		a, b := arena.Alloc(1), arena.Alloc(1)
		arena.Store(a, 7)
		sys := newSysT(t, arena, 1)
		sys.Thread(0).AtomicAt(blkLFStore, func(tx tm.Tx) {
			tx.Store(b, tx.Load(a)+1)
			if got := tx.Load(b); got != 8 {
				t.Errorf("read-own-write = %d, want 8", got)
			}
		})
		if got := arena.Load(b); got != 8 {
			t.Fatalf("b = %d, want 8", got)
		}
		if acq, seq := sys.LockAcquires(), sys.Seq(); acq != 1 || seq != 2 {
			t.Fatalf("lock acquisitions %d, seq %d; want 1, 2", acq, seq)
		}
		seqChangedOnly(t, sys, 0)
	})
	t.Run("contended", func(t *testing.T) {
		arena := mem.NewArena(1 << 10)
		a, b, c := arena.Alloc(1), arena.Alloc(1), arena.Alloc(1)
		arena.Store(a, 7)
		sys := newSysT(t, arena, 2)
		ready := make(chan struct{})
		done := make(chan struct{})
		thread.NewTeam(2).Run(func(tid int) {
			th := sys.Thread(tid)
			if tid == 1 {
				<-ready
				th.Atomic(func(tx tm.Tx) { tx.Store(c, 1) }) // disjoint: only seq moves
				close(done)
				return
			}
			attempt := 0
			th.AtomicAt(blkLFStoreCx, func(tx tm.Tx) {
				attempt++
				v := tx.Load(a)
				tx.Store(b, v)
				if attempt == 1 {
					close(ready)
					<-done // the commit below CASes from a stale snapshot
				}
			})
		})
		if got := arena.Load(b); got != 7 {
			t.Fatalf("b = %d, want 7", got)
		}
		if acq, seq := sys.LockAcquires(), sys.Seq(); acq != 2 || seq != 4 {
			t.Fatalf("lock acquisitions %d, seq %d; want 2, 4 (the peer's and the retry's)", acq, seq)
		}
		seqChangedOnly(t, sys, 1)
	})
}
