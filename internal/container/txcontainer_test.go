package container

import (
	"runtime"
	"sync/atomic"
	"testing"

	"github.com/stamp-go/stamp/internal/mem"
	"github.com/stamp-go/stamp/internal/rng"
	"github.com/stamp-go/stamp/internal/thread"
	"github.com/stamp-go/stamp/internal/tm"
	"github.com/stamp-go/stamp/internal/tm/tl2"
)

// These tests exercise the containers *inside transactions* under real
// concurrency — the way the applications use them — rather than through the
// Direct accessor.

func newSTM(t *testing.T, arena *mem.Arena, threads int) tm.System {
	t.Helper()
	sys, err := tl2.NewLazy(tm.Config{Arena: arena, Threads: threads})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestConcurrentRBTreeInserts(t *testing.T) {
	const threads = 8
	const perT = 400
	arena := mem.NewArena(1 << 22)
	d := mem.Direct{A: arena}
	tree := NewRBTree(d)
	sys := newSTM(t, arena, threads)
	team := thread.NewTeam(threads)
	team.Run(func(tid int) {
		th := sys.Thread(tid)
		for i := 0; i < perT; i++ {
			k := uint64(tid*perT + i)
			th.Atomic(func(tx tm.Tx) {
				tree.Insert(tx, k, k*2)
			})
		}
	})
	if tree.Len(d) != threads*perT {
		t.Fatalf("len = %d, want %d", tree.Len(d), threads*perT)
	}
	if tree.checkInvariants(d) < 0 {
		t.Fatal("red-black invariants broken after concurrent inserts")
	}
	for k := uint64(0); k < threads*perT; k++ {
		if v, ok := tree.Get(d, k); !ok || v != k*2 {
			t.Fatalf("Get(%d) = %d,%v", k, v, ok)
		}
	}
}

func TestConcurrentRBTreeMixedOps(t *testing.T) {
	const threads = 6
	const perT = 500
	arena := mem.NewArena(1 << 22)
	d := mem.Direct{A: arena}
	tree := NewRBTree(d)
	for k := uint64(0); k < 64; k++ {
		tree.Insert(d, k, 0)
	}
	sys := newSTM(t, arena, threads)
	team := thread.NewTeam(threads)
	team.Run(func(tid int) {
		th := sys.Thread(tid)
		r := rng.New(uint64(tid) + 99)
		for i := 0; i < perT; i++ {
			k := uint64(r.Intn(128))
			switch r.Intn(3) {
			case 0:
				th.Atomic(func(tx tm.Tx) { tree.Insert(tx, k, uint64(tid)) })
			case 1:
				th.Atomic(func(tx tm.Tx) { tree.Remove(tx, k) })
			default:
				th.Atomic(func(tx tm.Tx) { tree.Get(tx, k) })
			}
		}
	})
	if tree.checkInvariants(d) < 0 {
		t.Fatal("red-black invariants broken after concurrent mixed ops")
	}
}

func TestConcurrentQueueConservation(t *testing.T) {
	const threads = 8
	const items = 4000
	arena := mem.NewArena(1 << 20)
	d := mem.Direct{A: arena}
	q := NewQueue(d, 4)
	for i := 0; i < items; i++ {
		q.Push(d, uint64(i)+1)
	}
	sys := newSTM(t, arena, threads)
	team := thread.NewTeam(threads)
	popped := make([][]uint64, threads)
	team.Run(func(tid int) {
		th := sys.Thread(tid)
		for {
			var v uint64
			var ok bool
			th.Atomic(func(tx tm.Tx) { v, ok = q.Pop(tx) })
			if !ok {
				return
			}
			popped[tid] = append(popped[tid], v)
		}
	})
	seen := map[uint64]bool{}
	total := 0
	for _, list := range popped {
		for _, v := range list {
			if seen[v] {
				t.Fatalf("value %d popped twice", v)
			}
			seen[v] = true
			total++
		}
	}
	if total != items {
		t.Fatalf("popped %d of %d", total, items)
	}
}

func TestConcurrentHashtableDisjointKeys(t *testing.T) {
	const threads = 8
	const perT = 500
	arena := mem.NewArena(1 << 22)
	d := mem.Direct{A: arena}
	h := NewHashtable(d, 64)
	sys := newSTM(t, arena, threads)
	team := thread.NewTeam(threads)
	team.Run(func(tid int) {
		th := sys.Thread(tid)
		for i := 0; i < perT; i++ {
			k := uint64(tid)<<32 | uint64(i)
			th.Atomic(func(tx tm.Tx) { h.Insert(tx, k, k) })
		}
	})
	if h.Len(d) != threads*perT {
		t.Fatalf("len = %d", h.Len(d))
	}
}

// TestHashtableDisjointBucketsCommute: inserts into different buckets touch
// no common word, so they commute. Two stm-lazy workers insert keys into
// one bucket each, and every round both transactions wait, after their
// insert, until the other has inserted too, so their read and write sets
// overlap in time. A shared word written by every Insert (an element
// count) would abort one of them each round; the table has none, so
// neither aborts.
func TestHashtableDisjointBucketsCommute(t *testing.T) {
	const rounds = 200
	arena := mem.NewArena(1 << 16)
	d := mem.Direct{A: arena}
	h := NewHashtable(d, 2)
	var keys [2][]uint64 // keys[b] all hash to bucket b
	for k := uint64(1); len(keys[0]) < rounds || len(keys[1]) < rounds; k++ {
		b := mixKey(k) % 2
		keys[b] = append(keys[b], k)
	}
	sys := newSTM(t, arena, 2)
	var inserted atomic.Int64
	thread.NewTeam(2).Run(func(tid int) {
		th := sys.Thread(tid)
		for r := 0; r < rounds; r++ {
			first := true
			th.Atomic(func(tx tm.Tx) {
				h.Insert(tx, keys[tid][r], uint64(tid))
				if first {
					first = false
					inserted.Add(1)
					for inserted.Load() < int64(2*(r+1)) {
						runtime.Gosched()
					}
				}
			})
		}
	})
	if got := sys.Stats().Total.Aborts; got != 0 {
		t.Fatalf("%d aborts between inserts into disjoint buckets, want 0", got)
	}
	if h.Len(d) != 2*rounds {
		t.Fatalf("len = %d, want %d", h.Len(d), 2*rounds)
	}
}

func TestConcurrentHeapDrain(t *testing.T) {
	const threads = 4
	const items = 2000
	arena := mem.NewArena(1 << 20)
	d := mem.Direct{A: arena}
	h := NewHeap(d, 16)
	r := rng.New(5)
	for i := 0; i < items; i++ {
		h.Push(d, r.Uint64()%1_000_000, uint64(i))
	}
	sys := newSTM(t, arena, threads)
	team := thread.NewTeam(threads)
	vals := make([]map[uint64]bool, threads)
	team.Run(func(tid int) {
		th := sys.Thread(tid)
		vals[tid] = map[uint64]bool{}
		for {
			var v uint64
			var ok bool
			th.Atomic(func(tx tm.Tx) { _, v, ok = h.Pop(tx) })
			if !ok {
				return
			}
			vals[tid][v] = true
		}
	})
	total := 0
	seen := map[uint64]bool{}
	for _, m := range vals {
		for v := range m {
			if seen[v] {
				t.Fatalf("payload %d popped twice", v)
			}
			seen[v] = true
			total++
		}
	}
	if total != items {
		t.Fatalf("drained %d of %d", total, items)
	}
	if h.Len(d) != 0 {
		t.Fatal("heap not empty")
	}
}

func TestListAbortLeavesNoPartialInsert(t *testing.T) {
	// A transaction that inserts and then restarts must leave the list
	// untouched (write buffering); the retry path then completes it.
	arena := mem.NewArena(1 << 16)
	d := mem.Direct{A: arena}
	l := NewList(d)
	sys := newSTM(t, arena, 1)
	th := sys.Thread(0)
	first := true
	th.Atomic(func(tx tm.Tx) {
		l.Insert(tx, 5, 50)
		if first {
			first = false
			// Before restarting, the insert must be invisible outside.
			if l.Len(d) != 0 {
				t.Error("speculative insert visible before commit")
			}
			tx.Restart()
		}
	})
	if l.Len(d) != 1 || !l.Contains(d, 5) {
		t.Fatal("final insert missing")
	}
}
