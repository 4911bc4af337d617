package apps_test

import (
	"strings"
	"testing"

	"github.com/stamp-go/stamp/internal/apps"
	"github.com/stamp-go/stamp/internal/apps/genome"
	"github.com/stamp-go/stamp/internal/apps/kmeans"
	"github.com/stamp-go/stamp/internal/apps/ssca2"
	"github.com/stamp-go/stamp/internal/apps/vacation"
	"github.com/stamp-go/stamp/internal/mem"
	"github.com/stamp-go/stamp/internal/thread"
	"github.com/stamp-go/stamp/internal/tm"
	"github.com/stamp-go/stamp/internal/tm/factory"
)

// mustSys builds a TM system or fails the test.
func mustSys(t *testing.T, sysName string, arena *mem.Arena, threads int) tm.System {
	t.Helper()
	sys, err := factory.New(sysName, tm.Config{Arena: arena, Threads: threads})
	if err != nil {
		t.Fatalf("factory.New(%s): %v", sysName, err)
	}
	return sys
}

// runOn stages and runs app on one system and checks its oracle.
func runOn(t *testing.T, app apps.App, sysName string, threads int) {
	t.Helper()
	arena := mem.NewArena(app.ArenaWords())
	app.Setup(arena)
	sys := mustSys(t, sysName, arena, threads)
	app.Run(sys, thread.NewTeam(threads))
	if err := app.Verify(arena); err != nil {
		t.Fatalf("%s on %s: %v", app.Name(), sysName, err)
	}
	st := sys.Stats()
	if st.Total.Commits == 0 {
		t.Fatalf("%s on %s: no transactions committed", app.Name(), sysName)
	}
}

// allSystems runs the app constructor on every system at the given thread
// count (a fresh instance per system so arena state never leaks). In short
// mode the simulated-hardware systems are skipped: their per-line
// bookkeeping is an order of magnitude slower under the race detector, and
// they remain covered by the full run and the factory conformance suite.
func allSystems(t *testing.T, mk func() apps.App, threads int) {
	t.Helper()
	for _, name := range factory.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			if testing.Short() && (strings.HasPrefix(name, "htm") || strings.HasPrefix(name, "hybrid")) {
				t.Skip("simulated-hardware system skipped in short mode")
			}
			t.Parallel()
			n := threads
			if name == "seq" {
				n = 1
			}
			runOn(t, mk(), name, n)
		})
	}
}

func TestKMeansAllSystems(t *testing.T) {
	allSystems(t, func() apps.App {
		return kmeans.New(kmeans.Config{
			MinClusters: 8, MaxClusters: 8, Threshold: 0.05,
			Points: 1024, Dims: 8, GenCenters: 8, Seed: 1,
		})
	}, 4)
}

func TestKMeansLowContention(t *testing.T) {
	app := kmeans.New(kmeans.Config{
		MinClusters: 24, MaxClusters: 24, Threshold: 0.05,
		Points: 1024, Dims: 4, GenCenters: 8, Seed: 2,
	})
	runOn(t, app, "stm-lazy", 4)
}

func TestSSCA2AllSystems(t *testing.T) {
	allSystems(t, func() apps.App {
		return ssca2.New(ssca2.Config{
			Scale: 8, ProbInter: 0.5, ProbUnidirect: 0.3,
			MaxPathLen: 3, MaxParallel: 3, Seed: 3,
		})
	}, 4)
}

func TestSSCA2EdgeCountDeterminism(t *testing.T) {
	a := ssca2.New(ssca2.Config{Scale: 6, ProbInter: 1, ProbUnidirect: 1, MaxPathLen: 2, MaxParallel: 2, Seed: 9})
	b := ssca2.New(ssca2.Config{Scale: 6, ProbInter: 1, ProbUnidirect: 1, MaxPathLen: 2, MaxParallel: 2, Seed: 9})
	if a.Edges() != b.Edges() || a.Edges() == 0 {
		t.Fatalf("generator not deterministic: %d vs %d", a.Edges(), b.Edges())
	}
}

func TestVacationAllSystems(t *testing.T) {
	allSystems(t, func() apps.App {
		return vacation.New(vacation.Config{
			QueriesPerTx: 4, QueryRange: 60, PercentUser: 90,
			Records: 256, Transactions: 1024, Seed: 4,
		})
	}, 4)
}

func TestVacationHighUpdateRate(t *testing.T) {
	// Heavier table churn: more record creation/deletion paths.
	app := vacation.New(vacation.Config{
		QueriesPerTx: 2, QueryRange: 90, PercentUser: 40,
		Records: 128, Transactions: 2048, Seed: 5,
	})
	runOn(t, app, "stm-eager", 4)
}

func TestGenomeAllSystems(t *testing.T) {
	allSystems(t, func() apps.App {
		return genome.New(genome.Config{
			GeneLength: 256, SegmentLength: 16, Segments: 4096, Seed: 6,
		})
	}, 4)
}

// TestReadOnlyBlockAnnotations pins the harness's read-only block audit:
// the app call sites whose common path performs no store are registered
// through tm.NewROBlock — so stm-mv begins them on its zero-abort snapshot
// path — and the marks survive lookups (the mark is sticky; a plain
// NewBlock re-registration must not clear it). A genome run on stm-mv then
// proves the annotated blocks actually execute and commit there, with the
// whole run's abort accounting staying attributed.
func TestReadOnlyBlockAnnotations(t *testing.T) {
	roBlocks := []string{"genome/publish-ends", "genome/link-overlap", "bayes/learn-edge"}
	for _, name := range roBlocks {
		if !tm.BlockReadOnly(tm.NewBlock(name)) {
			t.Errorf("%s is not marked read-only", name)
		}
	}
	for _, name := range []string{"genome/dedup-insert", "bayes/pop-task"} {
		if tm.BlockReadOnly(tm.NewBlock(name)) {
			t.Errorf("%s is marked read-only but its common path stores", name)
		}
	}

	app := genome.New(genome.Config{
		GeneLength: 256, SegmentLength: 16, Segments: 4096, Seed: 6,
	})
	arena := mem.NewArena(app.ArenaWords())
	app.Setup(arena)
	sys := mustSys(t, "stm-mv", arena, 4)
	app.Run(sys, thread.NewTeam(4))
	if err := app.Verify(arena); err != nil {
		t.Fatalf("genome on stm-mv: %v", err)
	}
	st := sys.Stats()
	rows := make(map[string]tm.BlockRow)
	for _, row := range st.Blocks() {
		rows[row.Name] = row
	}
	for _, name := range []string{"genome/publish-ends", "genome/link-overlap"} {
		row, ok := rows[name]
		if !ok || row.Commits == 0 {
			t.Errorf("no commits recorded for annotated block %s (%+v)", name, rows)
		}
	}
	if unattr := st.AbortCauses()[tm.CauseUnknown]; unattr != 0 {
		t.Errorf("%d aborts left unattributed (CauseUnknown)", unattr)
	}
}

func TestGenomeSeededReconstruction(t *testing.T) {
	// Several seeds: the assembly oracle is exact (result == gene). Segment
	// length stays >= 16 as in all Table IV configs; shorter segments make
	// duplicate (s-1)-mers likely and assembly genuinely ambiguous.
	for seed := uint64(10); seed < 16; seed++ {
		app := genome.New(genome.Config{
			GeneLength: 128, SegmentLength: 16, Segments: 1024, Seed: seed,
		})
		runOn(t, app, "seq", 1)
	}
}
