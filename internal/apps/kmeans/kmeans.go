// Package kmeans implements STAMP's kmeans benchmark: K-means clustering
// (taken from MineBench in the original suite) where each thread processes a
// partition of the points and a transaction protects the update of the
// cluster-center accumulators. Transactions are short with small read/write
// sets proportional to the dimensionality D, and little of the execution
// time is transactional — the bulk is the private nearest-center search.
package kmeans

import (
	"fmt"
	"math"
	"sync"

	"github.com/stamp-go/stamp/internal/mem"
	"github.com/stamp-go/stamp/internal/rng"
	"github.com/stamp-go/stamp/internal/thread"
	"github.com/stamp-go/stamp/internal/tm"
)

// Atomic-block call sites, registered once for per-block statistics
// attribution (tm.Stats.Blocks).
var (
	blkCenter = tm.NewBlock("kmeans/center-update")
)

// Config mirrors the Table IV arguments: -m/-n (min/max clusters),
// -t (convergence threshold), and the generated input
// random-nPOINTS-dDIMS-cCENTERS.
type Config struct {
	MinClusters int     // -m
	MaxClusters int     // -n
	Threshold   float64 // -t
	Points      int     // input n
	Dims        int     // input d
	GenCenters  int     // input c: generator centers
	Seed        uint64
}

// maxIterations caps each clustering run, as in the original (500).
const maxIterations = 500

// App is one kmeans instance.
type App struct {
	cfg    Config
	points []float64 // Points × Dims, read-only after generation
	// refSSE is the sequential reference SSE Verify checks every run
	// against; it depends only on the input and K, so it is computed once.
	refSSE func() float64

	// Arena layout (per clustering run, reused across K):
	// accumulators: K rows of (Dims sums + 1 count).
	accBase mem.Addr

	// Results, filled by Run.
	converged  bool
	iterations int
	finalSSE   float64
	centers    []float64 // final centers of the last K run
}

// New generates the input point cloud: GenCenters gaussian blobs in the
// unit cube, matching the original random-n*-d*-c* inputs in spirit.
func New(cfg Config) *App {
	if cfg.MinClusters < 1 {
		cfg.MinClusters = 1
	}
	if cfg.MaxClusters < cfg.MinClusters {
		cfg.MaxClusters = cfg.MinClusters
	}
	r := rng.New(cfg.Seed ^ 0x6b6d65616e73)
	centers := make([]float64, cfg.GenCenters*cfg.Dims)
	for i := range centers {
		centers[i] = r.Float64()
	}
	pts := make([]float64, cfg.Points*cfg.Dims)
	for p := 0; p < cfg.Points; p++ {
		c := r.Intn(cfg.GenCenters)
		for d := 0; d < cfg.Dims; d++ {
			pts[p*cfg.Dims+d] = centers[c*cfg.Dims+d] + r.NormFloat64()*0.05
		}
	}
	a := &App{cfg: cfg, points: pts}
	a.refSSE = sync.OnceValue(func() float64 { return a.referenceSSE(cfg.MaxClusters) })
	return a
}

// Name implements apps.App.
func (a *App) Name() string { return "kmeans" }

// ArenaWords implements apps.App.
func (a *App) ArenaWords() int {
	return a.cfg.MaxClusters*(a.cfg.Dims+1) + 64
}

// Setup implements apps.App: allocates the shared accumulator block.
func (a *App) Setup(ar *mem.Arena) {
	a.accBase = ar.Alloc(a.cfg.MaxClusters * (a.cfg.Dims + 1))
}

// accAddr returns the accumulator row for cluster k: Dims sums then count.
func (a *App) accAddr(k int) mem.Addr {
	return a.accBase + mem.Addr(k*(a.cfg.Dims+1))
}

// Run implements apps.App. For each K in [MinClusters, MaxClusters] (all
// Table IV configs use m == n) it iterates assignment + transactional
// accumulation until fewer than Threshold of the points change membership.
func (a *App) Run(sys tm.System, team *thread.Team) {
	for k := a.cfg.MinClusters; k <= a.cfg.MaxClusters; k++ {
		a.runOnce(sys, team, k)
	}
}

func (a *App) runOnce(sys tm.System, team *thread.Team, k int) {
	n, d := a.cfg.Points, a.cfg.Dims
	direct := mem.Direct{A: sys.Arena()}

	// Initial centers: the first K points (deterministic, as in MineBench).
	centers := make([]float64, k*d)
	for c := 0; c < k && c < n; c++ {
		copy(centers[c*d:(c+1)*d], a.points[c*d:(c+1)*d])
	}
	membership := make([]int32, n)
	for i := range membership {
		membership[i] = -1
	}
	deltas := make([]int64, team.N()*8) // strided to avoid false sharing
	stop := false
	iter := 0

	team.Run(func(tid int) {
		th := sys.Thread(tid)
		lo, hi := tid*n/team.N(), (tid+1)*n/team.N()
		// The transaction of the paper: add point pt to the shared center
		// accumulator of cluster best. Built once per worker with its operands
		// in these variables, so the timed region allocates nothing per point
		// and the Go collector stays out of it.
		var best, pt int
		update := func(tx tm.Tx) {
			row := a.accAddr(best)
			for j := 0; j < d; j++ {
				addr := row + mem.Addr(j)
				tm.StoreF64(tx, addr, tm.LoadF64(tx, addr)+a.points[pt*d+j])
			}
			tx.Store(row+mem.Addr(d), tx.Load(row+mem.Addr(d))+1)
		}
		for {
			team.Barrier().Wait()
			if stop {
				return
			}
			local := int64(0)
			for p := lo; p < hi; p++ {
				nearest, nearestDist := 0, math.MaxFloat64
				for c := 0; c < k; c++ {
					dist := 0.0
					for j := 0; j < d; j++ {
						diff := a.points[p*d+j] - centers[c*d+j]
						dist += diff * diff
					}
					if dist < nearestDist {
						nearest, nearestDist = c, dist
					}
				}
				if membership[p] != int32(nearest) {
					membership[p] = int32(nearest)
					local++
				}
				best, pt = nearest, p
				th.AtomicAt(blkCenter, update)
			}
			deltas[tid*8] = local
			team.Barrier().Wait()
			if tid == 0 {
				// Master: fold accumulators into the next iteration's
				// centers (sequential, like the original's barrier phase).
				total := int64(0)
				for _, t := range deltas {
					total += t
				}
				for c := 0; c < k; c++ {
					row := a.accAddr(c)
					cnt := direct.Load(row + mem.Addr(d))
					for j := 0; j < d; j++ {
						if cnt > 0 {
							centers[c*d+j] = tm.LoadF64(direct, row+mem.Addr(j)) / float64(cnt)
						}
						tm.StoreF64(direct, row+mem.Addr(j), 0)
					}
					direct.Store(row+mem.Addr(d), 0)
				}
				iter++
				if float64(total)/float64(n) <= a.cfg.Threshold || iter >= maxIterations {
					stop = true
					a.converged = float64(total)/float64(n) <= a.cfg.Threshold
					a.iterations = iter
				}
			}
		}
	})

	a.centers = centers
	a.finalSSE = a.sse(centers, k)
}

// sse is the total within-cluster sum of squared distances for the given
// centers.
func (a *App) sse(centers []float64, k int) float64 {
	n, d := a.cfg.Points, a.cfg.Dims
	total := 0.0
	for p := 0; p < n; p++ {
		best := math.MaxFloat64
		for c := 0; c < k; c++ {
			dist := 0.0
			for j := 0; j < d; j++ {
				diff := a.points[p*d+j] - centers[c*d+j]
				dist += diff * diff
			}
			if dist < best {
				best = dist
			}
		}
		total += best
	}
	return total
}

// Verify implements apps.App: the clustering must have converged (or hit
// the iteration cap) and its quality must match a sequential reference run
// within a small tolerance — transactional accumulation reorders float
// additions, so bit equality is not expected.
func (a *App) Verify(*mem.Arena) error {
	if a.iterations == 0 {
		return fmt.Errorf("kmeans: Run was never executed")
	}
	if !a.converged && a.iterations < maxIterations {
		return fmt.Errorf("kmeans: stopped without converging after %d iterations", a.iterations)
	}
	ref := a.refSSE()
	if ref == 0 {
		return nil
	}
	rel := math.Abs(a.finalSSE-ref) / ref
	if rel > 0.05 {
		return fmt.Errorf("kmeans: SSE %.6g deviates %.2f%% from sequential reference %.6g",
			a.finalSSE, rel*100, ref)
	}
	return nil
}

// referenceSSE runs the same algorithm sequentially in plain Go.
func (a *App) referenceSSE(k int) float64 {
	n, d := a.cfg.Points, a.cfg.Dims
	centers := make([]float64, k*d)
	for c := 0; c < k && c < n; c++ {
		copy(centers[c*d:(c+1)*d], a.points[c*d:(c+1)*d])
	}
	membership := make([]int32, n)
	for i := range membership {
		membership[i] = -1
	}
	sums := make([]float64, k*d)
	counts := make([]int64, k)
	for iter := 0; iter < maxIterations; iter++ {
		changed := 0
		for i := range sums {
			sums[i] = 0
		}
		for i := range counts {
			counts[i] = 0
		}
		for p := 0; p < n; p++ {
			best, bestDist := 0, math.MaxFloat64
			for c := 0; c < k; c++ {
				dist := 0.0
				for j := 0; j < d; j++ {
					diff := a.points[p*d+j] - centers[c*d+j]
					dist += diff * diff
				}
				if dist < bestDist {
					best, bestDist = c, dist
				}
			}
			if membership[p] != int32(best) {
				membership[p] = int32(best)
				changed++
			}
			for j := 0; j < d; j++ {
				sums[best*d+j] += a.points[p*d+j]
			}
			counts[best]++
		}
		for c := 0; c < k; c++ {
			if counts[c] > 0 {
				for j := 0; j < d; j++ {
					centers[c*d+j] = sums[c*d+j] / float64(counts[c])
				}
			}
		}
		if float64(changed)/float64(n) <= a.cfg.Threshold {
			break
		}
	}
	return a.sse(centers, k)
}

// Iterations reports how many iterations the last Run took (for tests).
func (a *App) Iterations() int { return a.iterations }

// SSE reports the final clustering quality of the last Run (for tests).
func (a *App) SSE() float64 { return a.finalSSE }
