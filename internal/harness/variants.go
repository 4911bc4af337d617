// Package harness drives the paper's evaluation: it owns the Table IV
// variant registry, runs app × system × thread-count combinations, and
// regenerates Table VI (transactional characterization) and Figure 1
// (speedup curves).
package harness

import (
	"fmt"
	"sort"

	"github.com/stamp-go/stamp/internal/apps"
	"github.com/stamp-go/stamp/internal/apps/bayes"
	"github.com/stamp-go/stamp/internal/apps/genome"
	"github.com/stamp-go/stamp/internal/apps/intruder"
	"github.com/stamp-go/stamp/internal/apps/kmeans"
	"github.com/stamp-go/stamp/internal/apps/labyrinth"
	"github.com/stamp-go/stamp/internal/apps/ssca2"
	"github.com/stamp-go/stamp/internal/apps/vacation"
	"github.com/stamp-go/stamp/internal/apps/yada"
)

// Variant is one row of Table IV: an application plus its recommended
// configuration and data set.
type Variant struct {
	Name string // e.g. "kmeans-high+"
	App  string // e.g. "kmeans"
	Args string // the Table IV argument string, verbatim
	Sim  bool   // true for non-'++' variants (the simulation-scale inputs)

	// Make constructs the app instance. scale in (0, 1] shrinks the data
	// set proportionally (scale 1 = the paper's configuration); tests and
	// quick benches use small scales.
	Make func(scale float64) apps.App
}

func scaled(n int, scale float64, min int) int {
	v := int(float64(n) * scale)
	if v < min {
		return min
	}
	return v
}

const defaultSeed = 1

// variants is the registry of all 30 Table IV rows.
var variants = []Variant{
	{
		Name: "bayes", App: "bayes", Args: "-v32 -r1024 -n2 -p20 -i2 -e2", Sim: true,
		Make: func(s float64) apps.App {
			return bayes.New(bayes.Config{Vars: scaled(32, s, 8), Records: scaled(1024, s, 64),
				NumParent: 2, PercentParent: 20, InsertPenalty: 2, MaxEdgeLearn: 2, Seed: defaultSeed})
		},
	},
	{
		Name: "bayes+", App: "bayes", Args: "-v32 -r4096 -n2 -p20 -i2 -e2", Sim: true,
		Make: func(s float64) apps.App {
			return bayes.New(bayes.Config{Vars: scaled(32, s, 8), Records: scaled(4096, s, 64),
				NumParent: 2, PercentParent: 20, InsertPenalty: 2, MaxEdgeLearn: 2, Seed: defaultSeed})
		},
	},
	{
		Name: "bayes++", App: "bayes", Args: "-v32 -r4096 -n10 -p40 -i2 -e8 -s1", Sim: false,
		Make: func(s float64) apps.App {
			return bayes.New(bayes.Config{Vars: scaled(32, s, 8), Records: scaled(4096, s, 64),
				NumParent: 10, PercentParent: 40, InsertPenalty: 2, MaxEdgeLearn: 8, Seed: 1})
		},
	},
	{
		Name: "genome", App: "genome", Args: "-g256 -s16 -n16384", Sim: true,
		Make: func(s float64) apps.App {
			return genome.New(genome.Config{GeneLength: scaled(256, s, 64), SegmentLength: 16,
				Segments: scaled(16384, s, 1024), Seed: defaultSeed})
		},
	},
	{
		Name: "genome+", App: "genome", Args: "-g512 -s32 -n32768", Sim: true,
		Make: func(s float64) apps.App {
			return genome.New(genome.Config{GeneLength: scaled(512, s, 96), SegmentLength: 32,
				Segments: scaled(32768, s, 1024), Seed: defaultSeed})
		},
	},
	{
		Name: "genome++", App: "genome", Args: "-g16384 -s64 -n16777216", Sim: false,
		Make: func(s float64) apps.App {
			return genome.New(genome.Config{GeneLength: scaled(16384, s, 128), SegmentLength: 64,
				Segments: scaled(16777216, s, 2048), Seed: defaultSeed})
		},
	},
	{
		Name: "intruder", App: "intruder", Args: "-a10 -l4 -n2048 -s1", Sim: true,
		Make: func(s float64) apps.App {
			return intruder.New(intruder.Config{AttackPercent: 10, MaxPackets: 4,
				Flows: scaled(2048, s, 128), Seed: 1})
		},
	},
	{
		Name: "intruder+", App: "intruder", Args: "-a10 -l16 -n4096 -s1", Sim: true,
		Make: func(s float64) apps.App {
			return intruder.New(intruder.Config{AttackPercent: 10, MaxPackets: 16,
				Flows: scaled(4096, s, 128), Seed: 1})
		},
	},
	{
		Name: "intruder++", App: "intruder", Args: "-a10 -l128 -n262144 -s1", Sim: false,
		Make: func(s float64) apps.App {
			return intruder.New(intruder.Config{AttackPercent: 10, MaxPackets: 128,
				Flows: scaled(262144, s, 256), Seed: 1})
		},
	},
	{
		Name: "kmeans-high", App: "kmeans", Args: "-m15 -n15 -t0.05 -i random-n2048-d16-c16", Sim: true,
		Make: func(s float64) apps.App {
			return kmeans.New(kmeans.Config{MinClusters: 15, MaxClusters: 15, Threshold: 0.05,
				Points: scaled(2048, s, 256), Dims: 16, GenCenters: 16, Seed: defaultSeed})
		},
	},
	{
		Name: "kmeans-high+", App: "kmeans", Args: "-m15 -n15 -t0.05 -i random-n16384-d24-c16", Sim: true,
		Make: func(s float64) apps.App {
			return kmeans.New(kmeans.Config{MinClusters: 15, MaxClusters: 15, Threshold: 0.05,
				Points: scaled(16384, s, 256), Dims: 24, GenCenters: 16, Seed: defaultSeed})
		},
	},
	{
		Name: "kmeans-high++", App: "kmeans", Args: "-m15 -n15 -t0.00001 -i random-n65536-d32-c16", Sim: false,
		Make: func(s float64) apps.App {
			return kmeans.New(kmeans.Config{MinClusters: 15, MaxClusters: 15, Threshold: 0.00001,
				Points: scaled(65536, s, 256), Dims: 32, GenCenters: 16, Seed: defaultSeed})
		},
	},
	{
		Name: "kmeans-low", App: "kmeans", Args: "-m40 -n40 -t0.05 -i random-n2048-d16-c16", Sim: true,
		Make: func(s float64) apps.App {
			return kmeans.New(kmeans.Config{MinClusters: 40, MaxClusters: 40, Threshold: 0.05,
				Points: scaled(2048, s, 256), Dims: 16, GenCenters: 16, Seed: defaultSeed})
		},
	},
	{
		Name: "kmeans-low+", App: "kmeans", Args: "-m40 -n40 -t0.05 -i random-n16384-d24-c16", Sim: true,
		Make: func(s float64) apps.App {
			return kmeans.New(kmeans.Config{MinClusters: 40, MaxClusters: 40, Threshold: 0.05,
				Points: scaled(16384, s, 256), Dims: 24, GenCenters: 16, Seed: defaultSeed})
		},
	},
	{
		Name: "kmeans-low++", App: "kmeans", Args: "-m40 -n40 -t0.00001 -i random-n65536-d32-c16", Sim: false,
		Make: func(s float64) apps.App {
			return kmeans.New(kmeans.Config{MinClusters: 40, MaxClusters: 40, Threshold: 0.00001,
				Points: scaled(65536, s, 256), Dims: 32, GenCenters: 16, Seed: defaultSeed})
		},
	},
	{
		Name: "labyrinth", App: "labyrinth", Args: "-i random-x32-y32-z3-n96", Sim: true,
		Make: func(s float64) apps.App {
			return labyrinth.New(labyrinth.Config{X: 32, Y: 32, Z: 3,
				Paths: scaled(96, s, 8), Seed: defaultSeed})
		},
	},
	{
		Name: "labyrinth+", App: "labyrinth", Args: "-i random-x48-y48-z3-n64", Sim: true,
		Make: func(s float64) apps.App {
			return labyrinth.New(labyrinth.Config{X: 48, Y: 48, Z: 3,
				Paths: scaled(64, s, 8), Seed: defaultSeed})
		},
	},
	{
		Name: "labyrinth++", App: "labyrinth", Args: "-i random-x512-y512-z7-n512", Sim: false,
		Make: func(s float64) apps.App {
			return labyrinth.New(labyrinth.Config{X: scaled(512, s, 32), Y: scaled(512, s, 32), Z: 7,
				Paths: scaled(512, s, 8), Seed: defaultSeed})
		},
	},
	{
		Name: "ssca2", App: "ssca2", Args: "-s13 -i1.0 -u1.0 -l3 -p3", Sim: true,
		Make: func(s float64) apps.App {
			return ssca2.New(ssca2.Config{Scale: scaledScale(13, s), ProbInter: 1.0, ProbUnidirect: 1.0,
				MaxPathLen: 3, MaxParallel: 3, Seed: defaultSeed})
		},
	},
	{
		Name: "ssca2+", App: "ssca2", Args: "-s14 -i1.0 -u1.0 -l9 -p9", Sim: true,
		Make: func(s float64) apps.App {
			return ssca2.New(ssca2.Config{Scale: scaledScale(14, s), ProbInter: 1.0, ProbUnidirect: 1.0,
				MaxPathLen: 9, MaxParallel: 9, Seed: defaultSeed})
		},
	},
	{
		Name: "ssca2++", App: "ssca2", Args: "-s20 -i1.0 -u1.0 -l3 -p3", Sim: false,
		Make: func(s float64) apps.App {
			return ssca2.New(ssca2.Config{Scale: scaledScale(20, s), ProbInter: 1.0, ProbUnidirect: 1.0,
				MaxPathLen: 3, MaxParallel: 3, Seed: defaultSeed})
		},
	},
	{
		Name: "vacation-high", App: "vacation", Args: "-n4 -q60 -u90 -r16384 -t4096", Sim: true,
		Make: func(s float64) apps.App {
			return vacation.New(vacation.Config{QueriesPerTx: 4, QueryRange: 60, PercentUser: 90,
				Records: scaled(16384, s, 256), Transactions: scaled(4096, s, 256), Seed: defaultSeed})
		},
	},
	{
		Name: "vacation-high+", App: "vacation", Args: "-n4 -q60 -u90 -r1048576 -t4096", Sim: true,
		Make: func(s float64) apps.App {
			return vacation.New(vacation.Config{QueriesPerTx: 4, QueryRange: 60, PercentUser: 90,
				Records: scaled(1048576, s, 256), Transactions: scaled(4096, s, 256), Seed: defaultSeed})
		},
	},
	{
		Name: "vacation-high++", App: "vacation", Args: "-n4 -q60 -u90 -r1048576 -t4194304", Sim: false,
		Make: func(s float64) apps.App {
			return vacation.New(vacation.Config{QueriesPerTx: 4, QueryRange: 60, PercentUser: 90,
				Records: scaled(1048576, s, 256), Transactions: scaled(4194304, s, 256), Seed: defaultSeed})
		},
	},
	{
		Name: "vacation-low", App: "vacation", Args: "-n2 -q90 -u98 -r16384 -t4096", Sim: true,
		Make: func(s float64) apps.App {
			return vacation.New(vacation.Config{QueriesPerTx: 2, QueryRange: 90, PercentUser: 98,
				Records: scaled(16384, s, 256), Transactions: scaled(4096, s, 256), Seed: defaultSeed})
		},
	},
	{
		Name: "vacation-low+", App: "vacation", Args: "-n2 -q90 -u98 -r1048576 -t4096", Sim: true,
		Make: func(s float64) apps.App {
			return vacation.New(vacation.Config{QueriesPerTx: 2, QueryRange: 90, PercentUser: 98,
				Records: scaled(1048576, s, 256), Transactions: scaled(4096, s, 256), Seed: defaultSeed})
		},
	},
	{
		Name: "vacation-low++", App: "vacation", Args: "-n2 -q90 -u98 -r1048576 -t4194304", Sim: false,
		Make: func(s float64) apps.App {
			return vacation.New(vacation.Config{QueriesPerTx: 2, QueryRange: 90, PercentUser: 98,
				Records: scaled(1048576, s, 256), Transactions: scaled(4194304, s, 256), Seed: defaultSeed})
		},
	},
	{
		Name: "yada", App: "yada", Args: "-a20 -i 633.2", Sim: true,
		Make: func(s float64) apps.App {
			return yada.New(yada.Config{MinAngle: 20, Elements: scaled(1264, s, 64), Seed: defaultSeed})
		},
	},
	{
		Name: "yada+", App: "yada", Args: "-a10 -i ttimeu10000.2", Sim: true,
		Make: func(s float64) apps.App {
			return yada.New(yada.Config{MinAngle: 10, Elements: scaled(19998, s, 64), Seed: defaultSeed})
		},
	},
	{
		Name: "yada++", App: "yada", Args: "-a15 -i ttimeu1000000.2", Sim: false,
		Make: func(s float64) apps.App {
			return yada.New(yada.Config{MinAngle: 15, Elements: scaled(1999998, s, 64), Seed: defaultSeed})
		},
	},
}

// scaledScale shrinks a log2 graph scale: halving the workload removes one
// scale step.
func scaledScale(base int, s float64) int {
	v := base
	for s < 0.6 && v > 6 {
		v--
		s *= 2
	}
	return v
}

// Variants returns all registry entries, in Table IV order.
func Variants() []Variant { return variants }

// SimVariants returns the 20 non-'++' variants used in the paper's
// simulation experiments (Table VI, Figure 1).
func SimVariants() []Variant {
	var out []Variant
	for _, v := range variants {
		if v.Sim {
			out = append(out, v)
		}
	}
	return out
}

// FindVariant looks up a variant by name.
func FindVariant(name string) (Variant, error) {
	for _, v := range variants {
		if v.Name == name {
			return v, nil
		}
	}
	var known []string
	for _, v := range variants {
		known = append(known, v.Name)
	}
	sort.Strings(known)
	return Variant{}, fmt.Errorf("harness: unknown variant %q (known: %v)", name, known)
}
