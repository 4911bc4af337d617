package tm

import (
	"testing"
	"unsafe"
)

// TestPaddedUint64Isolation pins the layout contract: the atomic word of
// two adjacent PaddedUint64s can never land on the same cache line, and
// the accessors behave like sync/atomic.
func TestPaddedUint64Isolation(t *testing.T) {
	var pair [2]PaddedUint64
	a0 := uintptr(unsafe.Pointer(&pair[0].v))
	a1 := uintptr(unsafe.Pointer(&pair[1].v))
	if d := a1 - a0; d < 64 {
		t.Fatalf("padded words only %d bytes apart", d)
	}
	pair[0].Store(41)
	if pair[0].Add(1) != 42 || pair[0].Load() != 42 {
		t.Fatal("Add/Load broken")
	}
	if !pair[0].CompareAndSwap(42, 7) || pair[0].Load() != 7 {
		t.Fatal("CompareAndSwap broken")
	}
	if pair[1].Load() != 0 {
		t.Fatal("neighbor clobbered")
	}
}
