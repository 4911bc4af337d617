package mem

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"unsafe"
)

// back returns n zero words in an anonymous private mapping, rounded up to
// whole pages, and arranges for the mapping to be unmapped once a is
// unreachable.
//
// The mapping is how malloc serves STAMP's C suite: the kernel hands out
// zero pages and commits one only when it is first written, so a fresh
// arena costs no zeroing pass and no resident memory for words nobody
// draws. MAP_NORESERVE keeps an over-provisioned arena from being charged
// against the commit limit up front. There is deliberately no madvise: huge
// pages were measured no faster on the long-transaction workloads and make
// resident memory move in 2 MiB steps.
func back(a *Arena, n int) []uint64 {
	page := uint64(syscall.Getpagesize())
	size := (uint64(n)*8 + page - 1) &^ (page - 1)
	collectIfGrown(int64(size))
	b, err := syscall.Mmap(-1, 0, int(size), syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_PRIVATE|syscall.MAP_ANONYMOUS|syscall.MAP_NORESERVE)
	if err != nil {
		panic(fmt.Sprintf("mem: mapping a %d-word arena: %v", n, err))
	}
	mapped.Add(int64(size))
	runtime.AddCleanup(a, unmap, b)
	return unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(b))), n)
}

// unmap is an arena's cleanup: it returns the mapping to the OS.
func unmap(b []byte) {
	if err := syscall.Munmap(b); err != nil {
		panic(fmt.Sprintf("mem: unmapping an arena: %v", err))
	}
	mapped.Add(-int64(len(b)))
	unmapped.Add(int64(len(b)))
}

// collectFloor is the smallest mapped total at which NewArena forces a
// collection.
const collectFloor = 256 << 20

var (
	mapped   atomic.Int64 // bytes of arenas mapped and not yet unmapped
	unmapped atomic.Int64 // bytes of arenas unmapped, ever

	collectMu    sync.Mutex
	heldAtGC     int64 // mapped when NewArena last forced a collection
	unmappedAtGC int64 // unmapped at that moment
)

// collectIfGrown forces a collection before size more bytes are mapped if
// that would make the bytes held by arenas not yet unmapped at least double
// what survived the last forced collection, and at least collectFloor.
//
// Mappings are outside the Go heap, so they do not count toward the
// collector's own trigger: a program that drops arenas while its heap stays
// small would keep every dead mapping until some unrelated collection. The
// doubling keeps forced collections amortized against the arena bytes
// mapped, like the heap's own pacer; the floor keeps small programs from
// collecting at all. A collection only queues the cleanups of the arenas it
// found unreachable, and they run later on the runtime's cleanup goroutine,
// so what survived is what was mapped then minus what has been unmapped
// since; it settles as those cleanups run.
func collectIfGrown(size int64) {
	collectMu.Lock()
	defer collectMu.Unlock()
	survived := heldAtGC - (unmapped.Load() - unmappedAtGC)
	if mapped.Load()+size < max(collectFloor, 2*survived) {
		return
	}
	runtime.GC()
	heldAtGC, unmappedAtGC = mapped.Load(), unmapped.Load()
}
