package bayes_test

import (
	"testing"

	"github.com/stamp-go/stamp/internal/harness"
	"github.com/stamp-go/stamp/internal/mem"
	"github.com/stamp-go/stamp/internal/thread"
	"github.com/stamp-go/stamp/internal/tm"
	"github.com/stamp-go/stamp/internal/tm/factory"
)

// TestArenaWordsFitsPaperConfigs is the regression for the paper's own
// bayes configurations panicking in Setup (arena exhausted, cap 267072
// need 267074 for bayes; cap 1053504 need 1053505 for bayes+): Table IV's
// bayes, bayes+ and bayes++ stage into an arena of exactly ArenaWords()
// words, and bayes also runs and verifies on seq in it, so the run's
// allocations fit the headroom too. bayes runs at scale 1, the paper's
// size (a 9.3M-word adtree). At scale 1 bayes+ and bayes++ build 89M- and
// 121M-word trees — 0.8 and 1.1 GB arenas, too much for a shared test host —
// so they run at scale 0.75 (6-7M-word trees); the sizing is the same code
// at every scale.
func TestArenaWordsFitsPaperConfigs(t *testing.T) {
	for _, c := range []struct {
		name  string
		scale float64
	}{{"bayes", 1}, {"bayes+", 0.75}, {"bayes++", 0.75}} {
		name := c.name
		t.Run(name, func(t *testing.T) {
			if testing.Short() && name != "bayes" {
				t.Skip("short mode stages only the configuration that panicked")
			}
			v, err := harness.FindVariant(name)
			if err != nil {
				t.Fatal(err)
			}
			app := v.Make(c.scale)
			arena := mem.NewArena(app.ArenaWords())
			app.Setup(arena)
			if used := arena.Used(); used > arena.Cap() {
				t.Fatalf("Setup used %d of %d words", used, arena.Cap())
			}
			if name != "bayes" || testing.Short() {
				return
			}
			sys, err := factory.New("seq", tm.Config{Arena: arena, Threads: 1})
			if err != nil {
				t.Fatal(err)
			}
			app.Run(sys, thread.NewTeam(1))
			if err := app.Verify(arena); err != nil {
				t.Fatal(err)
			}
		})
	}
}
