package mv

import (
	"math"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"unsafe"

	"github.com/stamp-go/stamp/internal/mem"
	"github.com/stamp-go/stamp/internal/thread"
	"github.com/stamp-go/stamp/internal/tm"
	"github.com/stamp-go/stamp/internal/tm/tl2"
)

// capStripes is the TL2 family's stripe cap, which stm-mv shares: the table
// size of an arena too large to cover word for word.
var capStripes = 1 << tl2.TableBits(math.MaxInt32)

func newSys(t *testing.T, cfg tm.Config) *System {
	t.Helper()
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestSnapshotReadersZeroAbortsZeroLockAcquires is the headline pin of the
// multi-version design: under a contended read-heavy workload, stm-mv
// read-only transactions record zero aborts and zero stripe-lock
// acquisitions while writers commit the whole time. Two writer threads
// keep an a==b invariant across two hot words (every commit increments
// both); two reader threads sum the pair from the snapshot path for the
// writers' entire run. The ring is sized so no version a live snapshot
// can need is ever evicted (perW*2 commits + pre-images < MVVersions even
// if both words hash to one stripe), which makes the zero-abort claim
// deterministic rather than probabilistic. The yields inside the bodies
// force writer commits to land between a reader's two loads on few-core
// machines — the reader then must serve the second load from the version
// ring, and the a==b check proves the ring served the snapshot version,
// not the newer arena value.
func TestSnapshotReadersZeroAbortsZeroLockAcquires(t *testing.T) {
	const (
		threads = 4 // readers 0,1; writers 2,3
		perW    = 100
		ringK   = 256 // > 2*perW + pre-images: eviction can't outrun a snapshot
	)
	blk := tm.NewROBlock("mv-test/headline-sum")
	arena := mem.NewArena(1 << 12)
	a := arena.Alloc(1)
	b := arena.Alloc(1)
	sys := newSys(t, tm.Config{Arena: arena, Threads: threads, MVVersions: ringK})

	var done atomic.Bool
	var torn [2]int64
	team := thread.NewTeam(threads)
	team.Run(func(tid int) {
		th := sys.Thread(tid)
		if tid >= 2 { // writer
			for i := 0; i < perW; i++ {
				th.Atomic(func(tx tm.Tx) {
					la := tx.Load(a)
					runtime.Gosched() // let readers interleave mid-attempt
					tx.Store(a, la+1)
					tx.Store(b, tx.Load(b)+1)
				})
			}
			if tid == 3 {
				done.Store(true)
			}
			return
		}
		// Reader: snapshot sums for as long as the writers commit.
		for !done.Load() {
			th.AtomicAt(blk, func(tx tm.Tx) {
				la := tx.Load(a)
				runtime.Gosched() // a commit landing here forces a ring read
				lb := tx.Load(b)
				if la != lb {
					torn[tid]++
				}
			})
		}
	})

	for tid := 0; tid < 2; tid++ {
		if v := torn[tid]; v != 0 {
			t.Errorf("reader %d observed %d torn a/b pairs", tid, v)
		}
		if got := sys.Thread(tid).Stats().Aborts; got != 0 {
			t.Errorf("reader %d recorded %d aborts, want 0", tid, got)
		}
		if got := sys.ThreadLockAcquires(tid); got != 0 {
			t.Errorf("reader %d acquired %d stripe locks, want 0", tid, got)
		}
	}
	if got, want := arena.Load(a), uint64(2*perW); got != want {
		t.Errorf("a = %d, want %d", got, want)
	}
	if arena.Load(a) != arena.Load(b) {
		t.Errorf("final a/b diverged: %d != %d", arena.Load(a), arena.Load(b))
	}
	if got := sys.LockAcquires(); got == 0 {
		t.Error("writers acquired no stripe locks; the workload exercised nothing")
	}
	st := sys.Stats()
	if unattr := st.AbortCauses()[tm.CauseUnknown]; unattr != 0 {
		t.Errorf("%d aborts left unattributed (CauseUnknown)", unattr)
	}
}

// TestRingOverflowAbortsMVVersionMissing pins the closed abort taxonomy of
// the snapshot path: when writers commit a stripe more than MVVersions
// times past a pinned snapshot, the ring no longer retains any version the
// snapshot may read, and the reader aborts with mv-version-missing — the
// snapshot path's only abort cause — then succeeds on the write-path
// retry. The handshake makes the overflow deterministic: the reader pins
// its snapshot with a first load, then waits while the writer commits
// MVVersions+2 times, so the reader's next load finds the stripe advanced
// and every retained version too new.
func TestRingOverflowAbortsMVVersionMissing(t *testing.T) {
	const ringK = 4
	blk := tm.NewROBlock("mv-test/overflow-reader")
	arena := mem.NewArena(1 << 10)
	x := arena.Alloc(1)
	sys := newSys(t, tm.Config{Arena: arena, Threads: 2, MVVersions: ringK})

	writerGo := make(chan struct{})
	writerDone := make(chan struct{})
	var got uint64
	team := thread.NewTeam(2)
	team.Run(func(tid int) {
		th := sys.Thread(tid)
		if tid == 1 {
			<-writerGo
			for i := 0; i < ringK+2; i++ {
				th.Atomic(func(tx tm.Tx) {
					tx.Store(x, tx.Load(x)+1)
				})
			}
			close(writerDone)
			return
		}
		attempt := 0
		th.AtomicAt(blk, func(tx tm.Tx) {
			attempt++
			if attempt == 1 {
				_ = tx.Load(x) // pins nothing by itself, but proves rv predates the burst
				close(writerGo)
				<-writerDone
			}
			got = tx.Load(x)
		})
	})

	if want := uint64(ringK + 2); got != want {
		t.Errorf("retried read = %d, want %d", got, want)
	}
	if attempts := sys.Thread(0).Stats().Aborts; attempts == 0 {
		t.Error("reader never aborted; the overflow was not exercised")
	}
	causes := sys.Stats().AbortCauses()
	if causes[tm.CauseMVVersionMissing] == 0 {
		t.Errorf("no abort attributed to mv-version-missing: %v", causes)
	}
	if causes[tm.CauseUnknown] != 0 {
		t.Errorf("%d aborts left unattributed (CauseUnknown)", causes[tm.CauseUnknown])
	}
}

// TestSingleVersionDegrades pins the documented MVVersions=1 semantics: the
// ring holds only the newest committed version, so any snapshot pinned
// before even a single commit to the stripe must miss (the pre-image record
// is immediately evicted by the commit's own value record) — single-version
// TL2-like behavior, reached through the same mv-version-missing cause.
func TestSingleVersionDegrades(t *testing.T) {
	blk := tm.NewROBlock("mv-test/single-version-reader")
	arena := mem.NewArena(1 << 10)
	x := arena.Alloc(1)
	arena.Store(x, 7)
	sys := newSys(t, tm.Config{Arena: arena, Threads: 2, MVVersions: 1})
	if got := sys.RingDepth(); got != 1 {
		t.Fatalf("RingDepth = %d, want 1", got)
	}

	writerGo := make(chan struct{})
	writerDone := make(chan struct{})
	var got uint64
	team := thread.NewTeam(2)
	team.Run(func(tid int) {
		th := sys.Thread(tid)
		if tid == 1 {
			<-writerGo
			th.Atomic(func(tx tm.Tx) {
				tx.Store(x, tx.Load(x)+1)
			})
			close(writerDone)
			return
		}
		attempt := 0
		th.AtomicAt(blk, func(tx tm.Tx) {
			attempt++
			if attempt == 1 {
				_ = tx.Load(x)
				close(writerGo)
				<-writerDone
			}
			got = tx.Load(x)
		})
	})

	if got != 8 {
		t.Errorf("retried read = %d, want 8", got)
	}
	if causes := sys.Stats().AbortCauses(); causes[tm.CauseMVVersionMissing] == 0 {
		t.Errorf("single-version ring did not raise mv-version-missing: %v", causes)
	}
}

// TestRingScanHistory drives the version ring directly (white box): after a
// sequence of single-threaded commits, ringScan must return, for every
// snapshot timestamp, exactly the value that was current at it — including
// the pre-commit value through the pre-image record — and miss only below
// the pre-image's version once the ring has evicted it. A snapshot reader
// runs first: rings are kept only from the first snapshot reader on.
func TestRingScanHistory(t *testing.T) {
	arena := mem.NewArena(1 << 10)
	x := arena.Alloc(1)
	arena.Store(x, 7)                                     // pre-ring value
	sys := newSys(t, tm.Config{Arena: arena, Threads: 1}) // default ring depth 8
	if got := sys.RingDepth(); got != tm.DefaultMVVersions {
		t.Fatalf("RingDepth = %d, want the default %d", got, tm.DefaultMVVersions)
	}
	th := sys.Thread(0)
	th.AtomicAt(tm.NewROBlock("mv-test/history-reader"), func(tx tm.Tx) { _ = tx.Load(x) })
	c0 := sys.clock.Now()
	for i := 1; i <= 5; i++ {
		v := uint64(i * 10)
		th.Atomic(func(tx tm.Tx) { tx.Store(x, v) })
	}
	idx := sys.index(x)
	// The clock ticks once per writing commit: versions c0+1 .. c0+5.
	wantAt := map[uint64]uint64{
		c0:     7, // pre-image record
		c0 + 1: 10,
		c0 + 2: 20,
		c0 + 3: 30,
		c0 + 4: 40,
		c0 + 5: 50,
		c0 + 9: 50, // newer snapshots see the newest record
	}
	for rv, want := range wantAt {
		got, ok := sys.ringScan(idx, x, rv)
		if !ok || got != want {
			t.Errorf("ringScan(rv=%d) = %d, %v; want %d, true", rv, got, ok, want)
		}
	}
	// A commit burst that overflows the ring evicts oldest-first: the
	// pre-image and the early versions disappear, and old snapshots miss.
	for i := 6; i <= 12; i++ {
		v := uint64(i * 10)
		th.Atomic(func(tx tm.Tx) { tx.Store(x, v) })
	}
	if _, ok := sys.ringScan(idx, x, c0); ok {
		t.Error("ringScan found a record older than the ring retains")
	}
	if got, ok := sys.ringScan(idx, x, c0+12); !ok || got != 120 {
		t.Errorf("ringScan(rv=%d) = %d, %v; want 120, true", c0+12, got, ok)
	}
}

// TestROBlockStoreFallsBack pins the read-only mark's hint-not-contract
// semantics: a marked block that stores still commits correctly — the
// snapshot attempt buffers the store and goes through the ordinary
// write-path commit.
func TestROBlockStoreFallsBack(t *testing.T) {
	blk := tm.NewROBlock("mv-test/ro-that-stores")
	arena := mem.NewArena(1 << 10)
	x := arena.Alloc(1)
	arena.Store(x, 41)
	sys := newSys(t, tm.Config{Arena: arena, Threads: 1})
	sys.Thread(0).AtomicAt(blk, func(tx tm.Tx) {
		tx.Store(x, tx.Load(x)+1)
	})
	if got := arena.Load(x); got != 42 {
		t.Fatalf("x = %d, want 42", got)
	}
	if got := sys.Stats().Total.Commits; got != 1 {
		t.Fatalf("commits = %d, want 1", got)
	}
}

// TestConfigValidation pins the MVVersions config contract: zero resolves
// to the default depth, negatives are rejected with a message that says so,
// and the table size is clamped to the TL2 family's cap.
func TestConfigValidation(t *testing.T) {
	arena := mem.NewArena(1 << 10)
	if _, err := New(tm.Config{Arena: arena, Threads: 1, MVVersions: -1}); err == nil {
		t.Error("negative MVVersions accepted")
	} else if !strings.Contains(err.Error(), ">= 0 (0 = default)") {
		t.Errorf("negative MVVersions error %q does not say 0 selects the default", err)
	}
	sys := newSys(t, tm.Config{Arena: arena, Threads: 1})
	if got := sys.RingDepth(); got != tm.DefaultMVVersions {
		t.Errorf("default ring depth = %d, want %d", got, tm.DefaultMVVersions)
	}
	big := newSys(t, tm.Config{Arena: mem.NewArena(1 << 18), Threads: 1})
	if got := big.Stripes(); got != capStripes {
		t.Errorf("stripes = %d, want the clamped %d", got, capStripes)
	}
}

// TestWriterOnlyRunKeepsRingsOff: with no read-only block ever begun, no
// commit maintains a ring — the ring slab is never allocated — however
// many writers commit.
func TestWriterOnlyRunKeepsRingsOff(t *testing.T) {
	const threads, perT = 4, 200
	arena := mem.NewArena(1 << 10)
	words := make([]mem.Addr, 16)
	for i := range words {
		words[i] = arena.Alloc(1)
	}
	sys := newSys(t, tm.Config{Arena: arena, Threads: threads})
	thread.NewTeam(threads).Run(func(tid int) {
		th := sys.Thread(tid)
		for i := 0; i < perT; i++ {
			a := words[(tid+i)%len(words)]
			th.Atomic(func(tx tm.Tx) { tx.Store(a, tx.Load(a)+1) })
		}
	})
	if got := sys.Stats().Total.Commits; got != threads*perT {
		t.Fatalf("commits = %d, want %d", got, threads*perT)
	}
	if sys.rings.Load() != nil {
		t.Error("ring slab allocated by a writer-only run, want rings off")
	}
}

// ringSlabBytes is the size of a turned-on ring slab.
func ringSlabBytes(sys *System) uint64 {
	return uint64(sys.Stripes()) * uint64(sys.RingDepth()+1) * uint64(unsafe.Sizeof(slot{}))
}

// totalAlloc returns the bytes the Go heap has allocated so far.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// TestWriterOnlySystemAllocatesNoRings: an stm-mv system over an arena big
// enough for the full 2^16-stripe table, driven by writer-only blocks,
// allocates far less than one ring slab (13.5 MiB at the default depth) —
// New allocates none, and no commit turns the rings on.
func TestWriterOnlySystemAllocatesNoRings(t *testing.T) {
	const words = 1 << 16
	arena := mem.NewArena(words)
	x := arena.Alloc(1)
	before := totalAlloc()
	sys := newSys(t, tm.Config{Arena: arena, Threads: 2})
	if sys.Stripes() != capStripes {
		t.Fatalf("stripes = %d, want %d", sys.Stripes(), capStripes)
	}
	th := sys.Thread(0)
	for i := 0; i < 1000; i++ {
		th.Atomic(func(tx tm.Tx) { tx.Store(x, tx.Load(x)+1) })
	}
	grew := totalAlloc() - before
	if grew >= 2<<20 {
		t.Fatalf("New plus 1000 writer commits allocated %d B, want < 2 MiB (one ring slab is %d B)",
			grew, ringSlabBytes(sys))
	}
	runtime.KeepAlive(sys)
}

// TestRacingFirstReadersAllocateOneSlab: first snapshot readers that begin
// at once all find the rings on when their attempt starts, and only one of
// them allocates the slab.
func TestRacingFirstReadersAllocateOneSlab(t *testing.T) {
	const readers = 8
	blk := tm.NewROBlock("mv-test/racing-first-readers")
	arena := mem.NewArena(1 << 16)
	x := arena.Alloc(1)
	sys := newSys(t, tm.Config{Arena: arena, Threads: readers})
	slab := ringSlabBytes(sys)
	team := thread.NewTeam(readers)
	var on [readers]bool
	before := totalAlloc()
	team.Run(func(tid int) {
		th := sys.Thread(tid)
		team.Barrier().Wait()
		th.AtomicAt(blk, func(tx tm.Tx) {
			on[tid] = sys.rings.Load() != nil
			_ = tx.Load(x)
		})
	})
	grew := totalAlloc() - before
	for tid, ok := range on {
		if !ok {
			t.Errorf("reader %d ran its snapshot attempt with the rings off", tid)
		}
	}
	if p := sys.rings.Load(); p == nil || uint64(len(*p))*uint64(unsafe.Sizeof(slot{})) != slab {
		t.Fatalf("ring slab not published at its full size of %d B", slab)
	}
	if grew < slab || grew >= 2*slab {
		t.Fatalf("racing first readers allocated %d B, want one ring slab (%d B)", grew, slab)
	}
}

// TestLateReaderZeroAborts: a snapshot reader that starts after a
// writer-only history — rings still off, every stripe committed without a
// record — reads consistent snapshots with zero aborts while the writers
// keep committing. Every commit that missed the slab ticked before the
// reader read its clock, so the reader serves those versions from the
// arena; the first commits that see the slab start the rings with
// pre-images. (The subtest name is the clock, GV1 in the TL2 paper.)
func TestLateReaderZeroAborts(t *testing.T) {
	t.Run("gv1", func(t *testing.T) {
		const (
			threads = 4 // readers 0,1; writers 2,3
			history = 100
			perW    = 100
			ringK   = 256 // > 2*perW + pre-images: eviction can't outrun a snapshot
		)
		blk := tm.NewROBlock("mv-test/late-reader-sum")
		arena := mem.NewArena(1 << 12)
		a := arena.Alloc(1)
		b := arena.Alloc(1)
		sys := newSys(t, tm.Config{Arena: arena, Threads: threads, MVVersions: ringK})
		bump := func(th tm.Thread) {
			th.Atomic(func(tx tm.Tx) {
				la := tx.Load(a)
				runtime.Gosched() // let readers interleave mid-attempt
				tx.Store(a, la+1)
				tx.Store(b, tx.Load(b)+1)
			})
		}

		var done atomic.Bool
		var torn [2]int64
		team := thread.NewTeam(threads)
		team.Run(func(tid int) {
			th := sys.Thread(tid)
			if tid >= 2 {
				for i := 0; i < history; i++ {
					bump(th)
				}
			}
			team.Barrier().Wait()
			if tid == 0 && sys.rings.Load() != nil {
				t.Error("rings turned on during the writer-only history")
			}
			team.Barrier().Wait()
			if tid >= 2 {
				for i := 0; i < perW; i++ {
					bump(th)
				}
				if tid == 3 {
					done.Store(true)
				}
				return
			}
			for !done.Load() {
				th.AtomicAt(blk, func(tx tm.Tx) {
					la := tx.Load(a)
					runtime.Gosched() // a commit landing here forces a ring read
					if lb := tx.Load(b); la != lb {
						torn[tid]++
					}
				})
			}
		})

		for tid := 0; tid < 2; tid++ {
			if torn[tid] != 0 {
				t.Errorf("reader %d observed %d torn a/b pairs", tid, torn[tid])
			}
			if got := sys.Thread(tid).Stats().Aborts; got != 0 {
				t.Errorf("reader %d recorded %d aborts, want 0: %v", tid, got, sys.Stats().AbortCauses())
			}
		}
		if got, want := arena.Load(a), uint64(2*(history+perW)); got != want || arena.Load(b) != want {
			t.Errorf("a, b = %d, %d; want %d, %d", got, arena.Load(b), want, want)
		}
		if sys.rings.Load() == nil {
			t.Error("no snapshot reader turned the rings on")
		}
	})
}

// TestFirstReaderAfterUnrecordedCommit pins that retention from the first
// reader on costs no abort, deterministically on one thread: a commit with
// the rings off, then the first snapshot reader of that word. The commit
// ticked the clock, so the reader's snapshot admits it and it reads the
// arena with no abort.
func TestFirstReaderAfterUnrecordedCommit(t *testing.T) {
	blk := tm.NewROBlock("mv-test/first-reader")
	t.Run("gv1", func(t *testing.T) {
		arena := mem.NewArena(1 << 10)
		x := arena.Alloc(1)
		sys := newSys(t, tm.Config{Arena: arena, Threads: 1})
		th := sys.Thread(0)
		th.Atomic(func(tx tm.Tx) { tx.Store(x, 42) })
		var got uint64
		th.AtomicAt(blk, func(tx tm.Tx) { got = tx.Load(x) })
		if got != 42 {
			t.Errorf("reader saw %d, want 42", got)
		}
		if st := sys.Stats(); st.Total.Aborts != 0 {
			t.Errorf("aborts = %d (%v), want 0", st.Total.Aborts, st.AbortCauses())
		}
	})
}
