package factory

import (
	"fmt"
	"strings"
	"testing"

	"github.com/stamp-go/stamp/internal/mem"
	"github.com/stamp-go/stamp/internal/rng"
	"github.com/stamp-go/stamp/internal/thread"
	"github.com/stamp-go/stamp/internal/tm"
)

// concurrentNames lists the systems that must be correct under concurrency:
// every registered runtime except the sequential baseline. Deriving the
// list from Names() means any newly registered runtime is picked up by the
// whole cross-system conformance suite automatically.
func concurrentNames() []string {
	var names []string
	for _, n := range Names() {
		if n != "seq" {
			names = append(names, n)
		}
	}
	return names
}

// eagerInPlace lists the runtimes whose speculative writes go to memory in
// place (undo-log systems); everything else is assumed to buffer writes
// (redo-log systems). New registrations default to the buffered branch of
// the Peek semantics test — an in-place runtime must be added here.
var eagerInPlace = map[string]bool{
	"stm-eager": true, "htm-eager": true, "hybrid-eager": true,
}

func newSys(t *testing.T, name string, arena *mem.Arena, threads int) tm.System {
	t.Helper()
	sys, err := New(name, tm.Config{Arena: arena, Threads: threads})
	if err != nil {
		t.Fatalf("New(%s): %v", name, err)
	}
	return sys
}

func TestNamesComplete(t *testing.T) {
	want := map[string]bool{
		"seq": true, "stm-lazy": true, "stm-eager": true,
		"stm-norec": true, "stm-mv": true,
		"htm-lazy": true, "htm-eager": true, "hybrid-lazy": true, "hybrid-eager": true,
	}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v", got)
	}
	for _, n := range got {
		if !want[n] {
			t.Fatalf("unexpected system %q", n)
		}
	}
}

// TestRosterSupersets pins the relationship between the two rosters:
// TMNames() stays the paper's six systems so regenerated tables and figures
// keep their shape, while Names() must carry every registered runtime —
// in particular the post-paper ones (stm-norec, stm-mv), so any sweep that
// iterates Names() cannot silently miss them.
func TestRosterSupersets(t *testing.T) {
	if got := TMNames(); len(got) != 6 {
		t.Fatalf("TMNames() must stay the paper's six systems, got %v", got)
	}
	all := make(map[string]bool)
	for _, n := range Names() {
		all[n] = true
	}
	var want []string
	want = append(want, TMNames()...)
	want = append(want, "stm-norec", "stm-mv")
	for _, n := range want {
		if !all[n] {
			t.Fatalf("Names() = %v is missing %q", Names(), n)
		}
	}
}

func TestUnknownNameErrors(t *testing.T) {
	if _, err := New("nope", tm.Config{Arena: mem.NewArena(64), Threads: 1}); err == nil {
		t.Fatal("expected error for unknown system")
	}
}

// TestUnknownCMErrors: every runtime refuses a contention manager name that
// is not registered, seq too, though it never consults one.
func TestUnknownCMErrors(t *testing.T) {
	for _, name := range Names() {
		_, err := New(name, tm.Config{Arena: mem.NewArena(64), Threads: 1, CM: "no-such-policy"})
		if err == nil || !strings.Contains(err.Error(), "tm: unknown contention manager") {
			t.Errorf("New(%s, CM: no-such-policy) error = %v, want tm: unknown contention manager", name, err)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New("stm-lazy", tm.Config{Threads: 1}); err == nil {
		t.Fatal("expected error for nil arena")
	}
	if _, err := New("stm-lazy", tm.Config{Arena: mem.NewArena(64), Threads: 100}); err == nil {
		t.Fatal("expected error for >64 threads")
	}
}

// TestCounterAtomicity: concurrent blind increments must not lose updates.
func TestCounterAtomicity(t *testing.T) {
	const (
		threads = 8
		perT    = 2000
	)
	for _, name := range concurrentNames() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			arena := mem.NewArena(1 << 12)
			counter := arena.Alloc(1)
			sys := newSys(t, name, arena, threads)
			team := thread.NewTeam(threads)
			team.Run(func(tid int) {
				th := sys.Thread(tid)
				for i := 0; i < perT; i++ {
					th.Atomic(func(tx tm.Tx) {
						tx.Store(counter, tx.Load(counter)+1)
					})
				}
			})
			if got := arena.Load(counter); got != threads*perT {
				t.Fatalf("counter = %d, want %d", got, threads*perT)
			}
			st := sys.Stats()
			if st.Total.Commits != threads*perT {
				t.Fatalf("commits = %d, want %d", st.Total.Commits, threads*perT)
			}
		})
	}
}

// TestInvariantIsolation: transfers between accounts preserve the total, and
// no transaction (reader or writer) ever observes a torn total — this is the
// opacity / zombie-safety test.
func TestInvariantIsolation(t *testing.T) {
	const (
		threads  = 8
		accounts = 16
		total    = 1000
		perT     = 1500
	)
	for _, name := range concurrentNames() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			arena := mem.NewArena(1 << 12)
			// Spread accounts across distinct lines to exercise both word-
			// and line-granularity systems.
			accs := make([]mem.Addr, accounts)
			for i := range accs {
				accs[i] = arena.AllocLines(1)
			}
			arena.Store(accs[0], total)
			sys := newSys(t, name, arena, threads)
			team := thread.NewTeam(threads)
			var violations [threads]int64
			team.Run(func(tid int) {
				th := sys.Thread(tid)
				r := rng.New(uint64(tid) + 1)
				for i := 0; i < perT; i++ {
					from, to := r.Intn(accounts), r.Intn(accounts)
					amount := uint64(r.Intn(5))
					if i%5 == 0 {
						// Reader transaction: verify the invariant inside.
						th.Atomic(func(tx tm.Tx) {
							var sum uint64
							for _, a := range accs {
								sum += tx.Load(a)
							}
							if sum != total {
								violations[tid]++
							}
						})
						continue
					}
					th.Atomic(func(tx tm.Tx) {
						f := tx.Load(accs[from])
						if f < amount {
							return
						}
						tx.Store(accs[from], f-amount)
						tx.Store(accs[to], tx.Load(accs[to])+amount)
					})
				}
			})
			for tid, v := range violations {
				if v != 0 {
					t.Fatalf("thread %d observed %d torn snapshots", tid, v)
				}
			}
			var sum uint64
			for _, a := range accs {
				sum += arena.Load(a)
			}
			if sum != total {
				t.Fatalf("final total = %d, want %d", sum, total)
			}
		})
	}
}

// TestReadOwnWrites: a transaction must observe its own earlier stores.
func TestReadOwnWrites(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			arena := mem.NewArena(1 << 10)
			a := arena.Alloc(1)
			sys := newSys(t, name, arena, 1)
			sys.Thread(0).Atomic(func(tx tm.Tx) {
				tx.Store(a, 41)
				if got := tx.Load(a); got != 41 {
					t.Errorf("read-own-write = %d", got)
				}
				tx.Store(a, tx.Load(a)+1)
			})
			if got := arena.Load(a); got != 42 {
				t.Fatalf("after commit = %d", got)
			}
		})
	}
}

// TestSameLineDifferentWords: word-granularity systems must not conflate
// distinct words, and line-granularity systems must still be correct (only
// more conservative).
func TestSameLineDifferentWords(t *testing.T) {
	const threads = 4
	const perT = 2000
	for _, name := range concurrentNames() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			arena := mem.NewArena(1 << 10)
			base := arena.AllocLines(1) // 4 words, one line
			sys := newSys(t, name, arena, threads)
			team := thread.NewTeam(threads)
			team.Run(func(tid int) {
				th := sys.Thread(tid)
				slot := base + mem.Addr(tid%mem.WordsPerLine)
				for i := 0; i < perT; i++ {
					th.Atomic(func(tx tm.Tx) {
						tx.Store(slot, tx.Load(slot)+1)
					})
				}
			})
			for w := 0; w < threads && w < mem.WordsPerLine; w++ {
				if got := arena.Load(base + mem.Addr(w)); got != perT {
					t.Fatalf("word %d = %d, want %d", w, got, perT)
				}
			}
		})
	}
}

// TestRestart: a user restart retries the block until its condition holds.
func TestRestart(t *testing.T) {
	for _, name := range concurrentNames() {
		t.Run(name, func(t *testing.T) {
			arena := mem.NewArena(1 << 10)
			a := arena.Alloc(1)
			sys := newSys(t, name, arena, 1)
			th := sys.Thread(0)
			tries := 0
			th.Atomic(func(tx tm.Tx) {
				tries++
				if tries < 4 {
					tx.Restart()
				}
				tx.Store(a, uint64(tries))
			})
			if tries != 4 {
				t.Fatalf("tries = %d", tries)
			}
			if arena.Load(a) != 4 {
				t.Fatalf("value = %d", arena.Load(a))
			}
			if got := sys.Stats().Total.Aborts; got != 3 {
				t.Fatalf("aborts = %d, want 3", got)
			}
		})
	}
}

// TestAbortRollsBack: an aborted attempt must leave no trace in memory
// (write buffering or undo-log replay, depending on the system).
func TestAbortRollsBack(t *testing.T) {
	for _, name := range concurrentNames() {
		t.Run(name, func(t *testing.T) {
			arena := mem.NewArena(1 << 10)
			a := arena.Alloc(1)
			arena.Store(a, 7)
			sys := newSys(t, name, arena, 1)
			th := sys.Thread(0)
			first := true
			th.Atomic(func(tx tm.Tx) {
				if first {
					first = false
					tx.Store(a, 999)
					// The speculative store must not be visible after the
					// restart below — eager systems wrote in place and must
					// undo; lazy systems only buffered.
					tx.Restart()
				}
				if got := tx.Load(a); got != 7 {
					t.Errorf("speculative store leaked: %d", got)
				}
				tx.Store(a, 8)
			})
			if got := arena.Load(a); got != 8 {
				t.Fatalf("final = %d", got)
			}
		})
	}
}

// TestAllocInsideTx: transactional allocation yields usable, disjoint memory.
func TestAllocInsideTx(t *testing.T) {
	const threads = 4
	for _, name := range concurrentNames() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			arena := mem.NewArena(1 << 16)
			head := arena.Alloc(1) // linked-list head
			sys := newSys(t, name, arena, threads)
			team := thread.NewTeam(threads)
			const perT = 200
			team.Run(func(tid int) {
				th := sys.Thread(tid)
				for i := 0; i < perT; i++ {
					th.Atomic(func(tx tm.Tx) {
						node := tx.Alloc(2)
						tx.Store(node, uint64(tid*1000+i)) // payload
						tx.Store(node+1, tx.Load(head))    // next
						tx.Store(head, uint64(node))
					})
				}
			})
			// Walk the list: must contain exactly threads*perT nodes.
			seen := 0
			for p := mem.Addr(arena.Load(head)); p != mem.Nil; p = mem.Addr(arena.Load(p + 1)) {
				seen++
				if seen > threads*perT {
					t.Fatal("list longer than expected (cycle?)")
				}
			}
			if seen != threads*perT {
				t.Fatalf("list has %d nodes, want %d", seen, threads*perT)
			}
		})
	}
}

// sameSetLines allocates n line-aligned addresses 512 lines (2048 words)
// apart, so all of them map to one set of the simulated HTMs' Table V L1
// (512 sets of 4 ways): a transaction touching five or more overflows it.
func sameSetLines(arena *mem.Arena, n int) []mem.Addr {
	const stride = 512 * mem.WordsPerLine
	base := arena.AllocLines(n * stride)
	addrs := make([]mem.Addr, n)
	for i := range addrs {
		addrs[i] = base + mem.Addr(i*stride)
	}
	return addrs
}

// TestHTMLazyOverflowSerializes: transactions exceeding HTM capacity must
// still commit (via serialized execution) and stay correct under
// concurrency.
func TestHTMLazyOverflowSerializes(t *testing.T) {
	const threads = 4
	arena := mem.NewArena(1 << 16)
	addrs := sameSetLines(arena, 16) // 4x the set's ways
	sys, err := New("htm-lazy", tm.Config{Arena: arena, Threads: threads})
	if err != nil {
		t.Fatal(err)
	}
	team := thread.NewTeam(threads)
	const perT = 50
	team.Run(func(tid int) {
		th := sys.Thread(tid)
		for i := 0; i < perT; i++ {
			th.Atomic(func(tx tm.Tx) {
				// Touch every line: guaranteed overflow.
				for _, a := range addrs {
					tx.Store(a, tx.Load(a)+1)
				}
			})
		}
	})
	for _, a := range addrs {
		if got := arena.Load(a); got != threads*perT {
			t.Fatalf("lost updates under overflow: %d, want %d", got, threads*perT)
		}
	}
	if sys.Stats().AbortCauses()[tm.CauseHTMCapacity] == 0 {
		t.Fatal("no transaction overflowed the speculative buffer")
	}
}

// TestHTMEagerOverflowSignatures: the eager HTM must survive capacity
// overflow through its Bloom-filter path, with extra (false) conflicts but
// no lost updates.
func TestHTMEagerOverflowSignatures(t *testing.T) {
	const threads = 4
	arena := mem.NewArena(1 << 16)
	addrs := sameSetLines(arena, 12) // 3x the set's ways
	sys, err := New("htm-eager", tm.Config{Arena: arena, Threads: threads})
	if err != nil {
		t.Fatal(err)
	}
	team := thread.NewTeam(threads)
	const perT = 30
	team.Run(func(tid int) {
		th := sys.Thread(tid)
		for i := 0; i < perT; i++ {
			th.Atomic(func(tx tm.Tx) {
				for _, a := range addrs {
					tx.Store(a, tx.Load(a)+1)
				}
			})
		}
	})
	for _, a := range addrs {
		if got := arena.Load(a); got != threads*perT {
			t.Fatalf("lost updates under sig overflow: %d, want %d", got, threads*perT)
		}
	}

	// Witness the spill deterministically: while slot 0 holds the lines in
	// its signatures, slot 1 reading one must abort with signature-conflict
	// — the last line (past the set's ways, so only ever in the signatures)
	// and the first (held before the spill, which moved it there too).
	for _, probe := range []mem.Addr{addrs[len(addrs)-1], addrs[0]} {
		before := sys.Stats().AbortCauses()[tm.CauseSignatureConflict]
		ready, spilled, release, done := make(chan struct{}), make(chan struct{}), make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done)
			<-ready
			attempt := 0
			sys.Thread(1).Atomic(func(tx tm.Tx) {
				if attempt++; attempt == 2 {
					close(spilled)
					<-release
				}
				tx.Load(probe)
			})
		}()
		sys.Thread(0).Atomic(func(tx tm.Tx) {
			for _, a := range addrs {
				tx.Store(a, tx.Load(a))
			}
			close(ready)
			select {
			case <-spilled:
			case <-done: // slot 1 committed without a conflict: no spill
			}
		})
		close(release)
		<-done
		if got := sys.Stats().AbortCauses()[tm.CauseSignatureConflict] - before; got != 1 {
			t.Fatalf("reader of spilled line %d recorded %d signature-conflict aborts, want 1", probe, got)
		}
	}
}

// TestEarlyReleaseAllowsConcurrentCommit: after early release, another
// transaction's commit to the released line must not abort the releasing
// transaction on the HTMs (functional check: both commit and the final
// state is consistent).
func TestEarlyReleaseAllowsConcurrentCommit(t *testing.T) {
	for _, name := range []string{"htm-lazy", "htm-eager"} {
		t.Run(name, func(t *testing.T) {
			arena := mem.NewArena(1 << 12)
			shared := arena.AllocLines(1)
			private := arena.AllocLines(1)
			sys := newSys(t, name, arena, 2)
			team := thread.NewTeam(2)
			ready := make(chan struct{})
			done := make(chan struct{})
			team.Run(func(tid int) {
				th := sys.Thread(tid)
				if tid == 0 {
					th.Atomic(func(tx tm.Tx) {
						_ = tx.Load(shared)
						tx.EarlyRelease(shared)
						select {
						case <-ready:
						default:
							close(ready)
						}
						<-done // hold the transaction open while tid 1 commits
						tx.Store(private, 1)
					})
				} else {
					<-ready
					th.Atomic(func(tx tm.Tx) {
						tx.Store(shared, 42)
					})
					close(done)
				}
			})
			if arena.Load(shared) != 42 || arena.Load(private) != 1 {
				t.Fatalf("state = %d/%d", arena.Load(shared), arena.Load(private))
			}
			// tid 0 must not have aborted: its read was released before the
			// conflicting commit.
			if aborts := sys.Stats().Total.Aborts; aborts != 0 {
				t.Fatalf("unexpected aborts: %d", aborts)
			}
		})
	}
}

// TestPeekSemantics documents Peek: buffered (redo-log) systems do not show
// own speculative writes; in-place (undo-log) systems do.
func TestPeekSemantics(t *testing.T) {
	for _, name := range concurrentNames() {
		t.Run(name, func(t *testing.T) {
			arena := mem.NewArena(1 << 10)
			a := arena.Alloc(1)
			arena.Store(a, 5)
			sys := newSys(t, name, arena, 1)
			sys.Thread(0).Atomic(func(tx tm.Tx) {
				tx.Store(a, 6)
				got := tx.Peek(a)
				if !eagerInPlace[name] && got != 5 {
					t.Errorf("buffered Peek saw speculative write: %d", got)
				}
				if eagerInPlace[name] && got != 6 {
					t.Errorf("in-place Peek missed speculative write: %d", got)
				}
			})
		})
	}
}

// TestStatsAccounting: barrier counts and retry accounting line up under a
// contended workload.
func TestStatsAccounting(t *testing.T) {
	for _, name := range concurrentNames() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			const threads = 4
			const perT = 500
			arena := mem.NewArena(1 << 10)
			hot := arena.Alloc(1)
			sys := newSys(t, name, arena, threads)
			team := thread.NewTeam(threads)
			team.Run(func(tid int) {
				th := sys.Thread(tid)
				for i := 0; i < perT; i++ {
					th.Atomic(func(tx tm.Tx) {
						tx.Store(hot, tx.Load(hot)+1)
					})
				}
			})
			st := sys.Stats()
			if st.Total.Starts != threads*perT || st.Total.Commits != threads*perT {
				t.Fatalf("starts/commits = %d/%d", st.Total.Starts, st.Total.Commits)
			}
			if st.Total.Loads != threads*perT || st.Total.Stores != threads*perT {
				t.Fatalf("loads/stores = %d/%d (want %d committed barriers each)",
					st.Total.Loads, st.Total.Stores, threads*perT)
			}
			if st.Total.LoadsHist.N() != threads*perT {
				t.Fatalf("hist N = %d", st.Total.LoadsHist.N())
			}
			if mean := st.MeanLoads(); mean != 1 {
				t.Fatalf("mean loads = %v, want 1", mean)
			}
		})
	}
}

// TestManyLinesManyThreads is a broader stress: random read-modify-writes
// over a few hundred lines; total sum is conserved.
func TestManyLinesManyThreads(t *testing.T) {
	const (
		threads = 8
		cells   = 256
		perT    = 800
	)
	for _, name := range concurrentNames() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			arena := mem.NewArena(1 << 14)
			cellAddr := make([]mem.Addr, cells)
			for i := range cellAddr {
				cellAddr[i] = arena.Alloc(1)
				arena.Store(cellAddr[i], 10)
			}
			sys := newSys(t, name, arena, threads)
			team := thread.NewTeam(threads)
			team.Run(func(tid int) {
				th := sys.Thread(tid)
				r := rng.New(uint64(tid)*77 + 13)
				for i := 0; i < perT; i++ {
					a := cellAddr[r.Intn(cells)]
					b := cellAddr[r.Intn(cells)]
					th.Atomic(func(tx tm.Tx) {
						va := tx.Load(a)
						if va == 0 {
							return
						}
						tx.Store(a, va-1)
						tx.Store(b, tx.Load(b)+1)
					})
				}
			})
			var sum uint64
			for _, a := range cellAddr {
				sum += arena.Load(a)
			}
			if sum != cells*10 {
				t.Fatalf("sum = %d, want %d", sum, cells*10)
			}
		})
	}
}

// TestSeqMatchesModel: single-threaded random program produces identical
// results on every system and on a plain map model.
func TestSeqMatchesModel(t *testing.T) {
	const cells = 64
	const steps = 5000
	type opRec struct {
		kind int // 0: add, 1: copy, 2: xor
		a, b int
	}
	r := rng.New(12345)
	ops := make([]opRec, steps)
	for i := range ops {
		ops[i] = opRec{kind: r.Intn(3), a: r.Intn(cells), b: r.Intn(cells)}
	}
	ref := make([]uint64, cells)
	for i := range ref {
		ref[i] = uint64(i * 3)
	}
	for _, op := range ops {
		switch op.kind {
		case 0:
			ref[op.a] += ref[op.b] + 1
		case 1:
			ref[op.a] = ref[op.b]
		case 2:
			ref[op.a] ^= ref[op.b] + 7
		}
	}
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			arena := mem.NewArena(1 << 10)
			base := arena.Alloc(cells)
			for i := 0; i < cells; i++ {
				arena.Store(base+mem.Addr(i), uint64(i*3))
			}
			sys := newSys(t, name, arena, 1)
			th := sys.Thread(0)
			for _, op := range ops {
				op := op
				th.Atomic(func(tx tm.Tx) {
					a := base + mem.Addr(op.a)
					b := base + mem.Addr(op.b)
					switch op.kind {
					case 0:
						tx.Store(a, tx.Load(a)+tx.Load(b)+1)
					case 1:
						tx.Store(a, tx.Load(b))
					case 2:
						tx.Store(a, tx.Load(a)^(tx.Load(b)+7))
					}
				})
			}
			for i := 0; i < cells; i++ {
				if got := arena.Load(base + mem.Addr(i)); got != ref[i] {
					t.Fatalf("cell %d = %d, want %d", i, got, ref[i])
				}
			}
		})
	}
}

// TestCMConformance runs a condensed correctness suite — blind-increment
// atomicity plus invariant-preserving transfers with reader snapshots — over
// every concurrent runtime × every registered contention manager, so a new
// policy (or a new runtime) is automatically screened against lost updates,
// torn reads, and livelock under all arbitration paths. The extra "escalate"
// arm is randlin with a starvation threshold low enough that irrevocable
// escalation fires on a workload this short.
func TestCMConformance(t *testing.T) {
	const (
		threads  = 4
		perT     = 250
		accounts = 8
		total    = 400
	)
	type cmArm struct {
		name, cm    string
		starveAfter int
	}
	arms := []cmArm{{name: "escalate", cm: "randlin", starveAfter: 4}}
	for _, name := range tm.CMNames() {
		arms = append(arms, cmArm{name: name, cm: name})
	}
	for _, arm := range arms {
		for _, sysName := range concurrentNames() {
			t.Run(arm.name+"/"+sysName, func(t *testing.T) {
				t.Parallel()
				arena := mem.NewArena(1 << 12)
				counter := arena.Alloc(1)
				accs := make([]mem.Addr, accounts)
				for i := range accs {
					accs[i] = arena.AllocLines(1)
				}
				arena.Store(accs[0], total)
				sys, err := New(sysName, tm.Config{
					Arena: arena, Threads: threads, CM: arm.cm, StarveAfter: arm.starveAfter,
				})
				if err != nil {
					t.Fatalf("New(%s, %s): %v", sysName, arm.name, err)
				}
				team := thread.NewTeam(threads)
				var violations [threads]int64
				team.Run(func(tid int) {
					th := sys.Thread(tid)
					r := rng.New(uint64(tid)*31 + 7)
					for i := 0; i < perT; i++ {
						switch i % 3 {
						case 0:
							th.Atomic(func(tx tm.Tx) {
								tx.Store(counter, tx.Load(counter)+1)
							})
						case 1:
							from, to := r.Intn(accounts), r.Intn(accounts)
							amount := uint64(r.Intn(4))
							th.Atomic(func(tx tm.Tx) {
								f := tx.Load(accs[from])
								if f < amount {
									return
								}
								tx.Store(accs[from], f-amount)
								tx.Store(accs[to], tx.Load(accs[to])+amount)
							})
						default:
							th.Atomic(func(tx tm.Tx) {
								var sum uint64
								for _, a := range accs {
									sum += tx.Load(a)
								}
								if sum != total {
									violations[tid]++
								}
							})
						}
					}
				})
				wantCounter := uint64(threads * ((perT + 2) / 3))
				if got := arena.Load(counter); got != wantCounter {
					t.Fatalf("counter = %d, want %d (lost updates)", got, wantCounter)
				}
				var sum uint64
				for _, a := range accs {
					sum += arena.Load(a)
				}
				if sum != total {
					t.Fatalf("account total = %d, want %d", sum, total)
				}
				for tid, v := range violations {
					if v != 0 {
						t.Fatalf("thread %d observed %d torn snapshots", tid, v)
					}
				}
				st := sys.Stats()
				if st.Total.Starts != uint64(threads*perT) || st.Total.Commits != uint64(threads*perT) {
					t.Fatalf("starts/commits = %d/%d, want %d each",
						st.Total.Starts, st.Total.Commits, threads*perT)
				}
			})
		}
	}
}

func ExampleNew() {
	arena := mem.NewArena(1 << 10)
	sys, _ := New("stm-lazy", tm.Config{Arena: arena, Threads: 1})
	a := arena.Alloc(1)
	sys.Thread(0).Atomic(func(tx tm.Tx) {
		tx.Store(a, 7)
	})
	fmt.Println(arena.Load(a))
	// Output: 7
}
