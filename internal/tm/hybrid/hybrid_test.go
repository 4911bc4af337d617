package hybrid

import (
	"testing"

	"github.com/stamp-go/stamp/internal/mem"
	"github.com/stamp-go/stamp/internal/thread"
	"github.com/stamp-go/stamp/internal/tm"
)

func TestLazySignaturesClearBetweenTransactions(t *testing.T) {
	arena := mem.NewArena(1 << 10)
	a := arena.AllocLines(1)
	sys, err := NewLazy(tm.Config{Arena: arena, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	th := sys.Thread(0)
	th.Atomic(func(tx tm.Tx) { tx.Store(a, 1) })
	x := sys.Txs[0]
	// After commit the write signature is cleared (conflict window closed).
	if !x.writeSig.Empty() || !x.readSig.Empty() {
		t.Fatal("signatures survive commit")
	}
}

func TestEagerSignatureConflictRequesterLoses(t *testing.T) {
	// A reader probing a line held in another active transaction's write
	// signature must retry until the writer finishes.
	arena := mem.NewArena(1 << 12)
	a := arena.AllocLines(1)
	sys, err := NewEager(tm.Config{Arena: arena, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	team := thread.NewTeam(2)
	hold := make(chan struct{})
	started := make(chan struct{})
	var readerRetries int
	team.Run(func(tid int) {
		th := sys.Thread(tid)
		if tid == 0 {
			th.Atomic(func(tx tm.Tx) {
				tx.Store(a, 42)
				select {
				case <-started:
				default:
					close(started)
				}
				<-hold // keep the speculative write live
			})
			return
		}
		<-started
		attempts := 0
		th.Atomic(func(tx tm.Tx) {
			attempts++
			if attempts == 1 {
				// First attempt must observe the conflict... but only the
				// runtime knows; we just release the writer after our first
				// pass so the retry can succeed.
				defer close(hold)
			}
			if got := tx.Load(a); got != 0 && got != 42 {
				t.Errorf("torn read: %d", got)
			}
		})
		readerRetries = attempts - 1
	})
	if arena.Load(a) != 42 {
		t.Fatalf("writer lost: %d", arena.Load(a))
	}
	if readerRetries < 1 {
		t.Fatalf("reader never conflicted with the live writer (retries=%d)", readerRetries)
	}
}

func TestLazyCommitterWins(t *testing.T) {
	// A committing writer must doom a concurrent reader of the same line;
	// the reader's retry then sees the committed value.
	arena := mem.NewArena(1 << 12)
	a := arena.AllocLines(1)
	sys, err := NewLazy(tm.Config{Arena: arena, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	team := thread.NewTeam(2)
	readerIn := make(chan struct{})
	writerDone := make(chan struct{})
	sawOld, sawNew := false, false
	team.Run(func(tid int) {
		th := sys.Thread(tid)
		if tid == 0 {
			<-readerIn
			th.Atomic(func(tx tm.Tx) { tx.Store(a, 7) })
			close(writerDone)
			return
		}
		th.Atomic(func(tx tm.Tx) {
			v := tx.Load(a)
			select {
			case <-readerIn:
			default:
				close(readerIn)
			}
			<-writerDone // hold the transaction open across the commit
			switch v {
			case 0:
				sawOld = true
			case 7:
				sawNew = true
			}
		})
	})
	// The reader either got doomed and retried (seeing 7) or had already
	// read 0 and was flagged; its *final committed attempt* must be
	// consistent: if it read 0, the commit must have failed and retried.
	if !sawNew && !sawOld {
		t.Fatal("reader observed nothing")
	}
	if arena.Load(a) != 7 {
		t.Fatalf("final value %d", arena.Load(a))
	}
}

func TestEagerHybridFalseConflictsAcceptable(t *testing.T) {
	// Signatures may produce false conflicts but never lost updates:
	// hammer many distinct lines concurrently and check sums.
	const threads = 8
	const cells = 128
	const perT = 300
	arena := mem.NewArena(1 << 16)
	addrs := make([]mem.Addr, cells)
	for i := range addrs {
		addrs[i] = arena.AllocLines(1)
	}
	sys, err := NewEager(tm.Config{Arena: arena, Threads: threads})
	if err != nil {
		t.Fatal(err)
	}
	team := thread.NewTeam(threads)
	team.Run(func(tid int) {
		th := sys.Thread(tid)
		for i := 0; i < perT; i++ {
			a := addrs[(tid*perT+i)%cells]
			th.Atomic(func(tx tm.Tx) {
				tx.Store(a, tx.Load(a)+1)
			})
		}
	})
	var sum uint64
	for _, a := range addrs {
		sum += arena.Load(a)
	}
	if sum != threads*perT {
		t.Fatalf("sum = %d, want %d", sum, threads*perT)
	}
}
