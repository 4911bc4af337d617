package tm

import (
	"reflect"
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
	pair[0].StoreRelease(9)
	if pair[0].Load() != 9 {
		t.Fatal("StoreRelease/Load broken")
	}
	if pair[1].Load() != 0 {
		t.Fatal("neighbor clobbered")
	}
}

// TestPerWorkerStateIsolation pins the same contract for the per-worker
// liveness state every block writes — the governor's displaced flag, the
// policies' timestamps, karma and jitter streams. Each is allocated once
// per worker, back to back, so each must end in at least a line of padding:
// then two workers' written fields can never share a cache line.
func TestPerWorkerStateIsolation(t *testing.T) {
	for _, v := range []any{governor{}, randlinCM{}, expoCM{}, greedyCM{}, karmaCM{}} {
		typ := reflect.TypeOf(v)
		end := uintptr(0) // end of the last field that is not padding
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.Name != "_" {
				end = f.Offset + f.Type.Size()
			}
		}
		if pad := typ.Size() - end; pad < 64 {
			t.Errorf("%s: only %d bytes of padding after its last field", typ.Name(), pad)
		}
	}
}
