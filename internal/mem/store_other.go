//go:build !amd64 || race

package mem

import (
	"runtime"
	"sync/atomic"
)

// The commit stores stay sync/atomic stores here. A weakly ordered machine
// (arm64, ppc64, riscv64) may make a plain store visible before an earlier
// one, so a release must carry its own barrier. A race-enabled build keeps
// them atomic on amd64 too: readers load the words a committer writes back
// while it holds their locks, which the protocols intend and the race
// detector would otherwise report, and atomic commit stores leave its check
// of Direct's plain stores (see Direct) without that noise.

// StoreOwned writes the word at addr atomically. Only the owner of the
// word may call it: a transaction that holds its stripe lock or sequence
// lock, or is alone in the arena.
func (a *Arena) StoreOwned(addr Addr, v uint64) {
	atomic.StoreUint64(&a.words[addr], v)
	runtime.KeepAlive(a)
}

// StoreRelease writes a lock or sequence word its caller owns: the release
// that publishes every store before it.
func StoreRelease(w *atomic.Uint64, v uint64) { w.Store(v) }
