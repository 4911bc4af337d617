package mem

import (
	"errors"
	"strings"
	"testing"
)

// TestTryAllocTypedFailure pins the recoverable-exhaustion contract: a
// request that does not fit returns an ErrArenaFull-wrapped error, leaves
// the bump pointer where it was, and a smaller request still succeeds — no
// one-way ratchet, no panic.
func TestTryAllocTypedFailure(t *testing.T) {
	a := NewArena(8)
	used := a.Used() // line 0 is burned so Nil is never allocated
	if _, err := a.TryAlloc(16); !errors.Is(err, ErrArenaFull) {
		t.Fatalf("TryAlloc(16) on an 8-word arena: err = %v, want ErrArenaFull", err)
	}
	if a.Used() != used {
		t.Fatalf("failed TryAlloc moved the bump pointer %d -> %d", used, a.Used())
	}
	if _, err := a.TryAlloc(4); err != nil {
		t.Fatalf("TryAlloc(4) after a failed oversized request: %v", err)
	}
}

// TestAllocPanicMessageStable pins the setup-path panic: same wording family
// as the seed ("mem: arena exhausted"), and an error that wraps the typed
// sentinel, so a recovering caller can tell it from any other panic — for
// Arena.Alloc and for a Block carved from the arena.
func TestAllocPanicMessageStable(t *testing.T) {
	for name, alloc := range map[string]func(){
		"Arena.Alloc": func() { NewArena(4).Alloc(64) },
		"Block.Alloc": func() { NewArena(64).Carve(8).Alloc(9) },
		"Carve":       func() { NewArena(4).Carve(64) },
	} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("%s past capacity did not panic", name)
				}
				err, ok := r.(error)
				if !ok || !errors.Is(err, ErrArenaFull) || !strings.Contains(err.Error(), "mem: arena exhausted") {
					t.Fatalf("%s: panic value %v, want an error wrapping ErrArenaFull", name, r)
				}
			}()
			alloc()
		}()
	}
}

// TestTxFreeRecyclesOnCommit: a committed free reaches the size-class lists
// and the very next same-size allocation reuses the block without touching
// the shared pointer.
func TestTxFreeRecyclesOnCommit(t *testing.T) {
	a := NewArena(1 << 10)
	r := a.NewReserver(64)
	addr, err := r.TxAlloc(3)
	if err != nil {
		t.Fatal(err)
	}
	r.OnCommit()
	r.TxFree(addr, 3)
	r.OnCommit()
	used := a.Used()
	got, err := r.TxAlloc(3)
	if err != nil {
		t.Fatal(err)
	}
	r.OnCommit()
	if got != addr {
		t.Fatalf("allocation after a committed free returned %d, want the recycled block %d", got, addr)
	}
	if a.Used() != used {
		t.Fatalf("recycled allocation advanced the arena high-water %d -> %d", used, a.Used())
	}
	if r.Recycled() == 0 {
		t.Fatal("Recycled() = 0 after a free-list hit")
	}
}

// TestTxFreeDroppedOnAbort: an aborted attempt's frees never take effect —
// the freed block must NOT be recycled into a later allocation (its frees
// were speculative and the block is still live).
func TestTxFreeDroppedOnAbort(t *testing.T) {
	a := NewArena(1 << 10)
	r := a.NewReserver(64)
	addr, err := r.TxAlloc(3)
	if err != nil {
		t.Fatal(err)
	}
	r.OnCommit() // addr is now live
	r.TxFree(addr, 3)
	r.OnAbort() // attempt failed: the free must be dropped
	got, err := r.TxAlloc(3)
	if err != nil {
		t.Fatal(err)
	}
	if got == addr {
		t.Fatal("aborted attempt's TxFree recycled a live block")
	}
}

// TestTxAllocReclaimedOnAbort: an aborted attempt's allocations return to
// the free lists — nothing committed can reference them — so the retry
// reuses the same words instead of leaking them (the seed's tmalloc leak).
func TestTxAllocReclaimedOnAbort(t *testing.T) {
	a := NewArena(1 << 10)
	r := a.NewReserver(64)
	addr, err := r.TxAlloc(5)
	if err != nil {
		t.Fatal(err)
	}
	r.OnAbort()
	got, err := r.TxAlloc(5)
	if err != nil {
		t.Fatal(err)
	}
	if got != addr {
		t.Fatalf("retry after abort allocated %d, want the reclaimed block %d", got, addr)
	}
}

// TestTxAllocBoundedHighWater is the allocator-level statement of the PR's
// capping claim: balanced alloc/free churn far past the arena's capacity
// completes with a bounded high-water mark. 2^14 iterations of a 6-word
// node through a 1<<10-word arena would need 98k words unrecycled.
func TestTxAllocBoundedHighWater(t *testing.T) {
	a := NewArena(1 << 10)
	r := a.NewReserver(64)
	for i := 0; i < 1<<14; i++ {
		addr, err := r.TxAlloc(6)
		if err != nil {
			t.Fatalf("iteration %d: %v (high-water not capped)", i, err)
		}
		r.TxFree(addr, 6)
		r.OnCommit()
	}
	if a.Used() > 1<<10 {
		t.Fatalf("Used() = %d > cap", a.Used())
	}
}

// TestReserverTailRetiredAtRefill: the words abandoned at the end of a chunk
// when a refill happens must land in the free lists, not leak — observable
// as recycled volume once an allocation is served from them.
func TestReserverTailRetiredAtRefill(t *testing.T) {
	a := NewArena(1 << 10)
	r := a.NewReserver(8) // tiny chunk: every few allocations refill
	for i := 0; i < 8; i++ {
		if _, err := r.TxAlloc(5); err != nil { // 5 of 8: leaves a 3-word tail
			t.Fatal(err)
		}
		r.OnCommit()
	}
	// The retired 3-word tails must satisfy 3-word requests with no arena
	// growth.
	used := a.Used()
	if _, err := r.TxAlloc(3); err != nil {
		t.Fatal(err)
	}
	r.OnCommit()
	if a.Used() != used {
		t.Fatalf("3-word allocation advanced the arena %d -> %d despite retired tails", used, a.Used())
	}
}

// TestTxAllocExhaustionFallsBackToSpares: when the shared pointer is dry,
// TxAlloc must still serve requests the spares can cover before reporting
// ErrArenaFull.
func TestTxAllocExhaustionFallsBackToSpares(t *testing.T) {
	a := NewArena(64)
	r := a.NewReserver(32)
	big, err := r.TxAlloc(24)
	if err != nil {
		t.Fatal(err)
	}
	r.OnCommit()
	r.TxFree(big, 24)
	r.OnCommit() // 24 words on the spares
	// Drain the arena: the remaining fresh words go to a second reserver.
	other := a.NewReserver(0)
	for {
		if _, err := other.TxAlloc(4); err != nil {
			break
		}
		other.OnCommit()
	}
	// The shared pointer is dry, but r's spare block must still serve this.
	if _, err := r.TxAlloc(24); err != nil {
		t.Fatalf("TxAlloc(24) with a 24-word spare available: %v", err)
	}
}
