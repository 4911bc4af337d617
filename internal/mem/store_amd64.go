//go:build amd64 && !race

package mem

import (
	"runtime"
	"sync/atomic"
	"unsafe"
)

// The commit stores are plain MOVs here. x86-TSO keeps stores in program
// order and never moves a store ahead of an earlier load or locked
// instruction, and Go's compiler keeps every store in the memory order of
// the surrounding atomics. So a writeback that follows the locked CAS or
// XADD acquiring its words is seen after it, and a release that follows the
// writeback is seen only after every word written back — exactly what the
// locked XCHG of an atomic store bought, without draining the store buffer
// once per word. See store_other.go for every other build.

// StoreOwned writes the word at addr with a plain store. Only the owner of
// the word may call it: a transaction that holds its stripe lock or
// sequence lock, or is alone in the arena. Readers may run beside it and
// load the word atomically; they must check the owner's lock or sequence
// word around the load, which is what orders them against the write.
func (a *Arena) StoreOwned(addr Addr, v uint64) {
	a.words[addr] = v
	runtime.KeepAlive(a)
}

// StoreRelease writes a lock or sequence word its caller owns with a plain
// store: the release that publishes every store before it. An
// atomic.Uint64 is its 8-byte value behind zero-size fields, so the cast
// reaches the value (TestCommitStoresReadBack reads it back).
func StoreRelease(w *atomic.Uint64, v uint64) {
	*(*uint64)(unsafe.Pointer(w)) = v
}
