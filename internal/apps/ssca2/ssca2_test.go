package ssca2

import (
	"fmt"
	"testing"

	"github.com/stamp-go/stamp/internal/mem"
	"github.com/stamp-go/stamp/internal/thread"
	"github.com/stamp-go/stamp/internal/tm"
	"github.com/stamp-go/stamp/internal/tm/factory"
)

// TestKernel1Verifies runs Kernel 1 on seq at one thread and on the
// benchmark's three protocols at two (their team barrier spins when both
// threads hold a P), and pins its exact transaction count: one degree
// update and one placement per generated edge.
func TestKernel1Verifies(t *testing.T) {
	for _, c := range []struct {
		sys     string
		threads int
	}{{"seq", 1}, {"stm-lazy", 2}, {"stm-norec", 2}, {"stm-mv", 2}} {
		t.Run(fmt.Sprintf("%s@%d", c.sys, c.threads), func(t *testing.T) {
			app := New(Config{Scale: 9, ProbInter: 1, ProbUnidirect: 1, MaxPathLen: 3, MaxParallel: 3, Seed: 1})
			arena := mem.NewArena(app.ArenaWords())
			app.Setup(arena)
			sys, err := factory.New(c.sys, tm.Config{Arena: arena, Threads: c.threads})
			if err != nil {
				t.Fatal(err)
			}
			app.Run(sys, thread.NewTeam(c.threads))
			if err := app.Verify(arena); err != nil {
				t.Fatal(err)
			}
			if got, want := sys.Stats().Total.Commits, uint64(2*app.Edges()); got != want {
				t.Errorf("commits = %d, want exactly %d (two per edge)", got, want)
			}
		})
	}
}

// TestVerifyCatchesOneBadWeight: Verify accepts a node's run in any order
// (it checks a multiset) but refuses the arrays once one adjacency weight
// is off by one.
func TestVerifyCatchesOneBadWeight(t *testing.T) {
	app := New(Config{Scale: 9, ProbInter: 1, ProbUnidirect: 1, MaxPathLen: 3, MaxParallel: 3, Seed: 1})
	arena := mem.NewArena(app.ArenaWords())
	app.Setup(arena)
	sys, err := factory.New("seq", tm.Config{Arena: arena, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	app.Run(sys, thread.NewTeam(1))
	d := mem.Direct{A: arena}
	// Swap the first two edges of the first node with two or more.
	v := 0
	for d.Load(app.degBase+mem.Addr(v)) < 2 {
		v++
	}
	i := mem.Addr(d.Load(app.idxBase + mem.Addr(v)))
	for _, base := range []mem.Addr{app.adjBase, app.wgtBase} {
		x, y := d.Load(base+i), d.Load(base+i+1)
		d.Store(base+i, y)
		d.Store(base+i+1, x)
	}
	if err := app.Verify(arena); err != nil {
		t.Fatalf("a reordered run must verify: %v", err)
	}
	last := mem.Addr(app.Edges() - 1)
	d.Store(app.wgtBase+last, d.Load(app.wgtBase+last)+1)
	if err := app.Verify(arena); err == nil {
		t.Fatal("Verify accepted a corrupted adjacency weight")
	}
}
