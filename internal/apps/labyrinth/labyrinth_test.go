package labyrinth

import (
	"fmt"
	"testing"

	"github.com/stamp-go/stamp/internal/mem"
	"github.com/stamp-go/stamp/internal/thread"
	"github.com/stamp-go/stamp/internal/tm"
	"github.com/stamp-go/stamp/internal/tm/factory"
)

// cells are the batch benchmark's systems at test size: seq at one thread,
// and the three protocols the benchmark times at two.
var cells = []struct {
	sys     string
	threads int
}{{"seq", 1}, {"stm-lazy", 2}, {"stm-norec", 2}, {"stm-mv", 2}}

// maze is small enough to route in milliseconds and crowded enough that
// some routes must bend around others.
var maze = Config{X: 16, Y: 16, Z: 3, Paths: 32, Seed: 1}

// run stages app into a fresh arena, runs it on sys with a team of threads
// and returns Verify's verdict.
func run(t *testing.T, app *App, sys string, threads int) error {
	t.Helper()
	arena := mem.NewArena(app.ArenaWords())
	app.Setup(arena)
	s, err := factory.New(sys, tm.Config{Arena: arena, Threads: threads})
	if err != nil {
		t.Fatal(err)
	}
	app.Run(s, thread.NewTeam(threads))
	return app.Verify(arena)
}

// TestRoutesVerify: on every system each job ends routed or failed, every
// routed path is connected and owns its cells, and some paths do route.
func TestRoutesVerify(t *testing.T) {
	for _, c := range cells {
		t.Run(fmt.Sprintf("%s@%d", c.sys, c.threads), func(t *testing.T) {
			app := New(maze)
			if err := run(t, app, c.sys, c.threads); err != nil {
				t.Fatal(err)
			}
			if app.Routed() == 0 {
				t.Errorf("no path routed out of %d jobs", maze.Paths)
			}
		})
	}
}

// TestSeqRoutesDeterministically: one thread pops the jobs in queue order
// and routes each by the same expansion, so one seed routes the same number
// of paths every time.
func TestSeqRoutesDeterministically(t *testing.T) {
	routed := func() int {
		app := New(maze)
		if err := run(t, app, "seq", 1); err != nil {
			t.Fatal(err)
		}
		return app.Routed()
	}
	if first, second := routed(), routed(); first != second {
		t.Fatalf("seq routed %d paths, then %d, for one seed", first, second)
	}
}
