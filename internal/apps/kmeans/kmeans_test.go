package kmeans

import (
	"fmt"
	"testing"

	"github.com/stamp-go/stamp/internal/mem"
	"github.com/stamp-go/stamp/internal/thread"
	"github.com/stamp-go/stamp/internal/tm"
	"github.com/stamp-go/stamp/internal/tm/factory"
)

// cells are the benchmark's tx-short shape at test size: seq at one thread,
// and the three protocols the benchmark times at two, whose team barrier
// spins when both threads hold a P.
var cells = []struct {
	sys     string
	threads int
}{{"seq", 1}, {"stm-lazy", 2}, {"stm-norec", 2}, {"stm-mv", 2}}

// run stages app into a fresh arena, runs it on sys with a team of threads
// and returns the system's statistics and Verify's verdict.
func run(t *testing.T, app *App, sys string, threads int) (tm.Stats, error) {
	t.Helper()
	arena := mem.NewArena(app.ArenaWords())
	app.Setup(arena)
	s, err := factory.New(sys, tm.Config{Arena: arena, Threads: threads})
	if err != nil {
		t.Fatal(err)
	}
	app.Run(s, thread.NewTeam(threads))
	return s.Stats(), app.Verify(arena)
}

// TestNeverConvergingRunsToTheCap pins the benchmark's kmeans shape: with a
// negative threshold no iteration converges, so every system runs the
// original's 500-iteration cap and commits exactly one transaction per
// point per iteration — 500 × Points — and the clustering still matches
// the sequential reference.
func TestNeverConvergingRunsToTheCap(t *testing.T) {
	const points = 64
	for _, c := range cells {
		t.Run(fmt.Sprintf("%s@%d", c.sys, c.threads), func(t *testing.T) {
			app := New(Config{MinClusters: 5, MaxClusters: 5, Threshold: -1, Points: points, Dims: 4, GenCenters: 4, Seed: 1})
			st, err := run(t, app, c.sys, c.threads)
			if err != nil {
				t.Fatal(err)
			}
			if got := app.Iterations(); got != maxIterations {
				t.Errorf("iterations = %d, want the cap %d", got, maxIterations)
			}
			if got, want := st.Total.Commits, uint64(maxIterations*points); got != want {
				t.Errorf("commits = %d, want exactly %d (500 × Points)", got, want)
			}
		})
	}
}

// TestConvergingRunVerifies: with the paper's kind of threshold the run
// stops once few enough points change cluster, and Verify accepts the
// result on every system.
func TestConvergingRunVerifies(t *testing.T) {
	for _, c := range cells {
		t.Run(fmt.Sprintf("%s@%d", c.sys, c.threads), func(t *testing.T) {
			app := New(Config{MinClusters: 4, MaxClusters: 6, Threshold: 0.05, Points: 256, Dims: 8, GenCenters: 5, Seed: 2})
			if _, err := run(t, app, c.sys, c.threads); err != nil {
				t.Fatal(err)
			}
			if app.Iterations() >= maxIterations {
				t.Errorf("ran to the %d-iteration cap; want convergence", maxIterations)
			}
		})
	}
}
