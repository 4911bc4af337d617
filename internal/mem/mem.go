// Package mem provides the word-addressed shared-memory arena that hosts all
// transactionally shared state in the suite.
//
// STAMP's transactional behaviours — cache-line-granularity conflict
// detection, address signatures, early release, padding a datum to a full
// line — only exist when shared data has addresses. The arena is a flat
// array of 8-byte words; an Addr is a word index and a Line is a 32-byte
// (4-word) cache line index, matching the line size of the paper's simulated
// machine (Table V).
//
// Every word access that can run beside another goroutine's uses
// sync/atomic (Arena.Load, Store and CompareAndSwap), so that concurrent
// transactional systems built on top of the arena are free of Go data races
// even while they race at the semantic level (that is what the TM layers
// arbitrate). Direct.Store is the one plain write: Direct is for code that
// has the arena to itself, and the race detector checks that it does.
package mem

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
)

// WordsPerLine is the number of 8-byte words per simulated 32-byte cache
// line (Table V: 32 B lines).
const WordsPerLine = 4

// LineShift converts a word address to a line index: Line = Addr >> LineShift.
const LineShift = 2

// Addr is a word index into an Arena. Address 0 is reserved as the nil
// address; Alloc never returns it.
type Addr uint32

// Nil is the reserved null address.
const Nil Addr = 0

// Line is a 32-byte cache-line index (Addr >> LineShift).
type Line uint32

// LineOf returns the cache line containing a.
func LineOf(a Addr) Line { return Line(a >> LineShift) }

// LineStart returns the first word address of line l.
func LineStart(l Line) Addr { return Addr(l) << LineShift }

// ErrArenaFull reports an arena capacity miss: an allocation did not fit in
// the remaining words. It is a recoverable condition, not a crash — the TM
// runtimes turn it into an alloc-exhausted abort, the harness and the serving
// mode surface it as a typed error, and the server's epoch-swap recycler uses
// it as the trigger to compact into a fresh arena. Match with errors.Is.
var ErrArenaFull = errors.New("mem: arena exhausted")

// Arena is a fixed-capacity, non-moving word arena. Allocation is a
// lock-free bump pointer; freed words are recycled only through per-thread
// Reserver free lists (mirroring STAMP's tmalloc, where transactional frees
// are deferred and most benchmark allocations live for the whole run).
//
// The words live in a platform backing store (see back): on Linux, outside
// race-enabled builds, an anonymous mapping that the kernel commits page by
// page on first write and that is unmapped by a cleanup once the *Arena is
// unreachable. That is sound because of how words are reached:
//
//   - only through the Load, Store, StoreOwned and CompareAndSwap
//     methods, Direct.Store, and Release, which drops them all — nothing
//     in this package returns a slice of the words or a pointer into
//     them, and every other method touches only the bump pointer and the
//     capacity;
//   - each of those methods keeps its receiver reachable until the access
//     has completed (runtime.KeepAlive), so a caller that holds the *Arena
//     for a call holds the mapping for that call, even if the call is its
//     last use of the arena.
//
// So the cleanup, which runs only after the *Arena is unreachable, cannot
// unmap a word that some caller is about to touch. Keep both points true:
// a new accessor must go through a method that ends in runtime.KeepAlive,
// and no slice or pointer into words may leave the package.
type Arena struct {
	words []uint64
	next  atomic.Uint32 // next free word
}

// MaxWords is the largest arena capacity NewArena accepts: an Addr and the
// bump pointer are 32-bit word indices, and the end of the last allocation
// must fit in one.
const MaxWords = math.MaxUint32

// exhausted is the one construction site of every capacity-miss failure, so
// Alloc, TryAlloc, and the aligned paths cannot drift apart in wording or in
// the sentinel they wrap.
func (a *Arena) exhausted(need uint64) error {
	return fmt.Errorf("%w (cap %d words, need %d)", ErrArenaFull, len(a.words), need)
}

// NewArena returns an arena with capacity for nWords 8-byte words, all
// zero. Word 0 is reserved so that Addr 0 can serve as nil. It panics if
// nWords exceeds the 32-bit word-address range (2^32 - 1 words, 32 GiB).
func NewArena(nWords int) *Arena {
	if nWords < WordsPerLine {
		nWords = WordsPerLine
	}
	if uint64(nWords) > MaxWords {
		panic(fmt.Sprintf("mem: arena of %d words exceeds the 32-bit word-address range (at most %d words)", nWords, uint64(MaxWords)))
	}
	a := new(Arena)
	a.words = back(a, nWords)
	a.next.Store(WordsPerLine) // burn line 0 so Nil is never allocated
	return a
}

// Release hands the arena back while it is still reachable: it exhausts the
// bump pointer, so every later TryAlloc, Alloc or Reserver refill fails
// with ErrArenaFull (and Used reads Cap), and on Linux it returns the
// resident pages to the kernel at once. The mapping stays valid until the
// cleanup unmaps it, and a read of a released word sees zero. On the heap
// fallback the pages are not returned — the words keep their values until
// the collector frees the arena — so there Release only exhausts the
// arena. Call it once nothing reads the arena's contents any more: an
// epoch swap's retired arena, whose store was compacted elsewhere.
func (a *Arena) Release() {
	a.next.Store(uint32(len(a.words)))
	drop(a.words)
	runtime.KeepAlive(a)
}

// Cap returns the arena capacity in words.
func (a *Arena) Cap() int { return len(a.words) }

// Used returns the bump high-water mark in words: everything ever drawn
// from the shared pointer by Alloc/AllocLines plus everything reserved by
// Reservers, including alignment gaps and chunk tails. It is the high-water
// mark *net of free-list recycling*: words a Reserver recycles (transactional
// frees, reclaimed speculative allocations, retired chunk tails) are served
// again without advancing this mark, so on a long-lived workload with
// balanced alloc/free churn Used() plateaus instead of growing without
// bound. It is an upper bound on the words actually live, not an exact
// count — sizing and swap-threshold decisions should treat it as "words no
// longer available from the shared pointer".
func (a *Arena) Used() int { return int(a.next.Load()) }

// TryAlloc bump-allocates n words and returns the address of the first, or
// an ErrArenaFull-wrapped error when the request does not fit. The failure
// leaves the bump pointer unchanged, so exhaustion is observable and
// recoverable rather than a one-way ratchet.
func (a *Arena) TryAlloc(n int) (Addr, error) {
	if n <= 0 {
		n = 1
	}
	for {
		cur := a.next.Load()
		// 64-bit: cur < 2^32 and 0 < n < 2^63, so the sum cannot wrap, and
		// end <= len(a.words) <= MaxWords makes the uint32 store exact.
		end := uint64(cur) + uint64(n)
		if end > uint64(len(a.words)) {
			return Nil, a.exhausted(end)
		}
		if a.next.CompareAndSwap(cur, uint32(end)) {
			return Addr(cur), nil
		}
	}
}

// Alloc bump-allocates n words and returns the address of the first.
// It panics if the arena is exhausted — the convenience form for setup and
// verification phases, where arenas are sized per workload by the harness
// and exhaustion is a configuration bug. Runtime allocation paths use
// TryAlloc (via Reserver.TxAlloc) and recover instead.
func (a *Arena) Alloc(n int) Addr {
	addr, err := a.TryAlloc(n)
	if err != nil {
		panic(err.Error())
	}
	return addr
}

// AllocLines allocates n words rounded up so the block starts on a line
// boundary and occupies whole lines. Labyrinth pads every grid point to a
// full line this way (the paper does the same so early release is sound at
// line granularity). Like Alloc it panics on exhaustion.
func (a *Arena) AllocLines(n int) Addr {
	if n <= 0 {
		n = 1
	}
	addr, err := a.tryAllocAligned(n)
	if err != nil {
		panic(err.Error())
	}
	return addr
}

// tryAllocAligned carves n > 0 words, rounded up to whole lines, off the
// shared bump pointer, starting on a line boundary. Shared by AllocLines and
// Reserver refills, so both report exhaustion through the same ErrArenaFull
// failure path as TryAlloc.
func (a *Arena) tryAllocAligned(n int) (Addr, error) {
	size := (uint64(n) + WordsPerLine - 1) &^ (WordsPerLine - 1)
	for {
		cur := a.next.Load()
		start := (uint64(cur) + WordsPerLine - 1) &^ (WordsPerLine - 1)
		end := start + size // 64-bit, as in TryAlloc
		if end > uint64(len(a.words)) {
			return Nil, a.exhausted(end)
		}
		if a.next.CompareAndSwap(cur, uint32(end)) {
			return Addr(start), nil
		}
	}
}

// Reserver is a thread-private allocation handle over an Arena: it
// bump-allocates from a private, line-aligned chunk and refills the chunk
// from the shared bump pointer only on exhaustion — one contended atomic
// per chunkWords allocations instead of one per allocation, which is what
// keeps tx.Alloc off the shared `next` word in the allocation-heavy STAMP
// apps (genome, vacation, yada, bayes). Because chunks start on a line
// boundary and span whole lines, two threads' transactional allocations
// never share a 32-byte line, so the line-granularity runtimes (HTMs,
// hybrids) see no false conflicts from the allocator either.
//
// A Reserver is owned by one worker and is not safe for concurrent use;
// the arena it draws from remains fully concurrent.
//
// Beyond chunked reservation, a Reserver maintains per-thread free lists
// with abort-safe transactional semantics: TxFree defers a free to commit
// (OnCommit) so an aborted attempt's frees never take effect, and TxAlloc
// logs speculative allocations so an abort (OnAbort) reclaims them. Chunk
// tails abandoned at refill are retired into the same free lists instead of
// leaking. Together these cap the arena high-water mark on long-lived runs
// with balanced churn — where STAMP's tmalloc leaks every free and every
// aborted attempt. Recycling may hand one thread a block another thread
// freed, which weakens the strict cross-thread line-disjointness of fresh
// chunks to "recycled lines may be shared": that can cost the
// line-granularity runtimes spurious conflicts, never soundness.
type Reserver struct {
	a       *Arena
	next    uint32 // next free word of the private chunk
	limit   uint32 // end of the private chunk (next == limit: empty)
	chunk   uint32 // refill size in words (0: passthrough to Arena.TryAlloc)
	refills uint64 // shared-pointer refills (the contended-atomic count)

	// Free lists: classes[n] holds blocks of exactly n words (n <=
	// freeClasses); spares holds larger blocks and retired chunk tails.
	classes  [freeClasses + 1][]Addr
	spares   []span
	recycled uint64 // words served from the free lists instead of the arena

	// Per-attempt logs for the abort-safe protocol (see TxAlloc/TxFree).
	allocLog []span
	freeLog  []span
}

// freeClasses is the largest block size (in words) kept on an exact
// size-class free list. The transactional workloads free small fixed-size
// nodes (list nodes 3, reservation records 5, rbtree nodes 6); container
// data arrays and retired chunk tails land in the variable-size spares.
const freeClasses = 64

// span is one free or speculative block: address and size in words.
type span struct {
	addr Addr
	n    uint32
}

// NewReserver returns a reservation handle that refills chunkWords words
// (rounded up to whole lines) at a time. chunkWords < 1 yields a
// passthrough Reserver whose every miss hits the shared bump pointer
// directly — the path for arenas too small to reserve from. Free-list
// recycling works in both modes.
func (a *Arena) NewReserver(chunkWords int) *Reserver {
	if chunkWords < 1 {
		return &Reserver{a: a}
	}
	c := (chunkWords + WordsPerLine - 1) &^ (WordsPerLine - 1)
	return &Reserver{a: a, chunk: uint32(c)}
}

// Alloc bump-allocates n words, panicking when the arena is exhausted — the
// setup-phase convenience, like Arena.Alloc. Transactional paths use
// TxAlloc and recover.
func (r *Reserver) Alloc(n int) Addr {
	addr, err := r.alloc(n)
	if err != nil {
		panic(err.Error())
	}
	return addr
}

// TxAlloc allocates n words for the current transactional attempt: free
// lists first, then the private chunk, then the shared pointer. The block
// is logged so OnAbort can reclaim it if the attempt fails. A capacity miss
// returns an ErrArenaFull-wrapped error (after the free lists, the chunk
// tail, and the spares have all been tried) — the runtimes turn that into
// an alloc-exhausted abort instead of a panic.
func (r *Reserver) TxAlloc(n int) (Addr, error) {
	addr, err := r.alloc(n)
	if err == nil {
		r.allocLog = append(r.allocLog, span{addr, allocSize(n)})
	}
	return addr, err
}

// allocSize normalizes a request to the size alloc actually hands out.
func allocSize(n int) uint32 {
	if n <= 0 {
		return 1
	}
	return uint32(n)
}

// alloc is the shared allocation path of Alloc and TxAlloc.
func (r *Reserver) alloc(n int) (Addr, error) {
	if n <= 0 {
		n = 1
	}
	// Exact size-class hit: the common case for node churn.
	if n <= freeClasses {
		if l := r.classes[n]; len(l) > 0 {
			addr := l[len(l)-1]
			r.classes[n] = l[:len(l)-1]
			r.recycled += uint64(n)
			return addr, nil
		}
	}
	if uint64(n) > uint64(len(r.a.words)) { // also keeps uint32(n) below exact
		return Nil, r.a.exhausted(uint64(n))
	}
	if r.chunk == 0 { // passthrough mode
		if addr, ok := r.carveSpare(uint32(n)); ok {
			return addr, nil
		}
		return r.a.TryAlloc(n)
	}
	if uint32(n) > r.chunk { // oversized: never fits a chunk
		if addr, ok := r.carveSpare(uint32(n)); ok {
			return addr, nil
		}
		return r.a.tryAllocAligned(n)
	}
	if uint32(n) > r.limit-r.next { // next <= limit: no wrap
		if err := r.refill(uint32(n)); err != nil {
			// Arena dry: fall back to carving any spare that fits before
			// reporting exhaustion.
			if addr, ok := r.carveSpare(uint32(n)); ok {
				return addr, nil
			}
			return Nil, err
		}
	}
	addr := Addr(r.next)
	r.next += uint32(n)
	return addr, nil
}

// refill retires the current chunk tail into the free lists, then installs
// a new chunk: a recycled spare when one is big enough for the pending
// request, otherwise a fresh line-aligned block from the shared pointer.
func (r *Reserver) refill(need uint32) error {
	if tail := r.limit - r.next; tail > 0 {
		r.release(Addr(r.next), tail)
	}
	r.next, r.limit = 0, 0
	// Adopt the largest spare as the new chunk when it covers the request:
	// recycled tails and large frees become bump space again.
	if best := r.largestSpare(); best >= 0 && r.spares[best].n >= need {
		sp := r.spares[best]
		r.spares[best] = r.spares[len(r.spares)-1]
		r.spares = r.spares[:len(r.spares)-1]
		r.recycled += uint64(sp.n)
		r.next, r.limit = uint32(sp.addr), uint32(sp.addr)+sp.n
		return nil
	}
	r.refills++
	start, err := r.a.tryAllocAligned(int(r.chunk))
	if err != nil {
		return err
	}
	r.next, r.limit = uint32(start), uint32(start)+r.chunk
	return nil
}

// largestSpare returns the index of the biggest spare block (-1 when none).
func (r *Reserver) largestSpare() int {
	best := -1
	for i := range r.spares {
		if best < 0 || r.spares[i].n > r.spares[best].n {
			best = i
		}
	}
	return best
}

// carveSpare takes an n-word prefix of any spare block that fits, returning
// the remainder to the free lists.
func (r *Reserver) carveSpare(n uint32) (Addr, bool) {
	for i := range r.spares {
		sp := r.spares[i]
		if sp.n < n {
			continue
		}
		r.spares[i] = r.spares[len(r.spares)-1]
		r.spares = r.spares[:len(r.spares)-1]
		r.recycled += uint64(n)
		if rest := sp.n - n; rest > 0 {
			r.release(sp.addr+Addr(n), rest)
		}
		return sp.addr, true
	}
	return Nil, false
}

// release files a free block under its size class (or the spares).
func (r *Reserver) release(addr Addr, n uint32) {
	if addr == Nil || n == 0 {
		return
	}
	if n <= freeClasses {
		r.classes[n] = append(r.classes[n], addr)
		return
	}
	r.spares = append(r.spares, span{addr, n})
}

// TxFree records a transactional free of the n-word block at addr. The free
// is deferred: it reaches the free lists only when the attempt commits
// (OnCommit), so an aborted attempt's frees — whose loads may have been
// inconsistent — never recycle live memory.
func (r *Reserver) TxFree(addr Addr, n int) {
	if addr == Nil || n <= 0 {
		return
	}
	r.freeLog = append(r.freeLog, span{addr, uint32(n)})
}

// Free releases a block immediately (non-transactional callers that know
// the block is unreachable, e.g. compaction discarding a dead arena region).
func (r *Reserver) Free(addr Addr, n int) {
	if n > 0 {
		r.release(addr, uint32(n))
	}
}

// OnCommit seals the current attempt: deferred frees reach the free lists
// and the speculative-allocation log is forgotten (the blocks are now
// reachable). Called once per committed atomic block by the runtimes.
func (r *Reserver) OnCommit() {
	for _, sp := range r.freeLog {
		r.release(sp.addr, sp.n)
	}
	r.freeLog = r.freeLog[:0]
	r.allocLog = r.allocLog[:0]
}

// OnAbort rolls the current attempt back: speculative allocations return to
// the free lists (nothing committed can reference them) and deferred frees
// are dropped. Called once per aborted attempt by the runtimes.
func (r *Reserver) OnAbort() {
	for _, sp := range r.allocLog {
		r.release(sp.addr, sp.n)
	}
	r.allocLog = r.allocLog[:0]
	r.freeLog = r.freeLog[:0]
}

// Refills returns how many times this Reserver went to the shared bump
// pointer — the number of contended atomics its allocations have cost
// (excluding oversized requests, which always go shared).
func (r *Reserver) Refills() uint64 { return r.refills }

// Recycled returns the words served from this Reserver's free lists instead
// of the shared pointer — the allocation volume that did not advance the
// arena high-water mark.
func (r *Reserver) Recycled() uint64 { return r.recycled }

// The word accessors (StoreOwned among them, in store_amd64.go and
// store_other.go), and Direct.Store, end in runtime.KeepAlive: the
// arena must stay reachable until the access completes, or the backing
// store's cleanup could unmap the word between the address computation and
// the access (see Arena). KeepAlive is not a call; it costs at most a spill
// of the receiver to the stack.

// Load atomically reads the word at addr.
func (a *Arena) Load(addr Addr) uint64 {
	v := atomic.LoadUint64(&a.words[addr])
	runtime.KeepAlive(a)
	return v
}

// Store atomically writes the word at addr. A committing STM, which owns
// the words it writes back, uses StoreOwned instead.
func (a *Arena) Store(addr Addr, v uint64) {
	atomic.StoreUint64(&a.words[addr], v)
	runtime.KeepAlive(a)
}

// CompareAndSwap atomically CASes the word at addr.
func (a *Arena) CompareAndSwap(addr Addr, old, new uint64) bool {
	ok := atomic.CompareAndSwapUint64(&a.words[addr], old, new)
	runtime.KeepAlive(a)
	return ok
}

// Float helpers: several applications (kmeans, yada, bayes) store float64
// values in arena words as IEEE-754 bit patterns.

// F2W converts a float64 to its word representation.
func F2W(f float64) uint64 { return math.Float64bits(f) }

// W2F converts a word back to float64.
func W2F(w uint64) float64 { return math.Float64frombits(w) }

// Direct is a non-transactional accessor over an arena. It satisfies the
// same read/write/alloc contract as a transaction (tm.Mem), which lets the
// container library and application setup code run outside any transaction
// — exactly like STAMP's sequential initialization phases.
//
// Direct is for code that has the arena to itself: staging before the
// workers start, checking after they join, a master phase between two
// barriers (kmeans, ssca2, genome), a server's store population, and an
// epoch swap's compaction into the arena it has not yet published. Its
// Store is a plain write, not a locked exchange, so it must not run beside
// any other goroutine's access to the same words; a race-enabled build
// reports one that does (arenas are heap-backed there, see back).
type Direct struct{ A *Arena }

// Load reads the word at addr without any transactional bookkeeping. It is
// the arena's atomic load, which on amd64 is already a plain MOV, so a
// plain read would save nothing.
func (d Direct) Load(addr Addr) uint64 { return d.A.Load(addr) }

// Store writes the word at addr with a plain store and no transactional
// bookkeeping. Like the Arena accessors it ends in runtime.KeepAlive.
func (d Direct) Store(addr Addr, v uint64) {
	d.A.words[addr] = v
	runtime.KeepAlive(d.A)
}

// Alloc allocates from the underlying arena.
func (d Direct) Alloc(n int) Addr { return d.A.Alloc(n) }

// Free is a no-op: Direct has no per-thread free list to recycle into (the
// arena only recycles through Reservers); present to satisfy the tm.Mem
// contract's sized-free signature.
func (d Direct) Free(Addr, int) {}
