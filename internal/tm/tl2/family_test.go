package tl2_test

import (
	"testing"

	"github.com/stamp-go/stamp/internal/mem"
	"github.com/stamp-go/stamp/internal/thread"
	"github.com/stamp-go/stamp/internal/tm"
	"github.com/stamp-go/stamp/internal/tm/mv"
	"github.com/stamp-go/stamp/internal/tm/tl2"
)

// These tests hold the whole TL2 family — stm-lazy, stm-eager and stm-mv,
// which shares TL2's lock table — to one sizing rule. They live in an
// external test package because mv imports tl2.

// stripedSystem is a TL2-family runtime and its lock-table size.
type stripedSystem interface {
	tm.System
	Stripes() int
}

// family builds each TL2-family runtime over cfg.
var family = []struct {
	name string
	new  func(tm.Config) (stripedSystem, error)
}{
	{"stm-lazy", func(c tm.Config) (stripedSystem, error) { return tl2.NewLazy(c) }},
	{"stm-eager", func(c tm.Config) (stripedSystem, error) { return tl2.NewEager(c) }},
	{"stm-mv", func(c tm.Config) (stripedSystem, error) { return mv.New(c) }},
}

// TestLockTableRightSizing pins the one sizing rule: one stripe per arena
// word, next power of two, clamped to [2^12, 2^16] stripes, the same for
// every runtime of the family.
func TestLockTableRightSizing(t *testing.T) {
	cases := []struct {
		arenaWords int
		want       int // stripes
	}{
		{1 << 10, 1 << 12},   // tiny arena: floor
		{1 << 14, 1 << 14},   // one stripe per word
		{1<<14 + 1, 1 << 15}, // rounds up to the next power of two
		{1 << 24, 1 << 16},   // huge arena: the cap
	}
	for _, c := range cases {
		if got := 1 << tl2.TableBits(c.arenaWords); got != c.want {
			t.Errorf("TableBits(%d) gives %d stripes, want %d", c.arenaWords, got, c.want)
		}
		cfg := tm.Config{Arena: mem.NewArena(c.arenaWords), Threads: 2}
		for _, f := range family {
			sys, err := f.new(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := sys.Stripes(); got != c.want {
				t.Errorf("%s stripes(arena=%d) = %d, want %d", f.name, c.arenaWords, got, c.want)
			}
		}
	}
}

// aliasedPair allocates two words of a 2^20-word arena that share a stripe
// of the capped table: a and a + 2^16 + 1, since (x ^ x>>16) & 0xffff is
// the same for both (8 and 0x10009, the first word after the burned Nil
// line, both land on stripe 8).
func aliasedPair(t *testing.T) (*mem.Arena, mem.Addr, mem.Addr) {
	t.Helper()
	const words = 1 << 20
	arena := mem.NewArena(words)
	a := arena.Alloc(1<<16 + 2)
	b := a + 1<<16 + 1
	lt := tl2.NewLockTable(tl2.TableBits(words))
	if lt.Index(a) != lt.Index(b) {
		t.Fatalf("addresses %#x and %#x map to stripes %d and %d, want one shared stripe", a, b, lt.Index(a), lt.Index(b))
	}
	return arena, a, b
}

// TestStripeAliasAtCap: above 2^16 words the table wraps, so distinct
// words share a stripe. (a) One transaction that stores to both words of
// an aliased pair commits them both: the commit-time acquire finds the
// stripe already its own, and stm-eager's second encounter-time store
// re-enters the lock it holds. (b) Two workers each incrementing their own
// word of the pair lose no update: the shared stripe may abort attempts
// (false conflicts) but never drops a commit.
func TestStripeAliasAtCap(t *testing.T) {
	const (
		threads = 2
		perT    = 1000
	)
	for _, f := range family {
		t.Run(f.name, func(t *testing.T) {
			arena, a, b := aliasedPair(t)
			sys, err := f.new(tm.Config{Arena: arena, Threads: threads})
			if err != nil {
				t.Fatal(err)
			}
			sys.Thread(0).Atomic(func(tx tm.Tx) {
				tx.Store(a, 11)
				tx.Store(b, 22)
			})
			if got, want := [2]uint64{arena.Load(a), arena.Load(b)}, [2]uint64{11, 22}; got != want {
				t.Fatalf("after one transaction stored both aliased words: %v, want %v", got, want)
			}
			if st := sys.Stats().Total; st.Commits != 1 || st.Aborts != 0 {
				t.Fatalf("one transaction over an aliased pair: %d commits, %d aborts, want 1 and 0", st.Commits, st.Aborts)
			}

			arena.Store(a, 0)
			arena.Store(b, 0)
			words := [threads]mem.Addr{a, b}
			thread.NewTeam(threads).Run(func(tid int) {
				th, w := sys.Thread(tid), words[tid]
				for i := 0; i < perT; i++ {
					th.Atomic(func(tx tm.Tx) { tx.Store(w, tx.Load(w)+1) })
				}
			})
			for tid, w := range words {
				if got := arena.Load(w); got != perT {
					t.Errorf("worker %d's counter = %d, want %d", tid, got, perT)
				}
			}
		})
	}
}
