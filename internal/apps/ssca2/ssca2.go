// Package ssca2 implements STAMP's ssca2 benchmark: Kernel 1 of the
// Scalable Synthetic Compact Applications 2 graph suite, which constructs an
// efficient adjacency-array representation of a large directed weighted
// multigraph. Threads add nodes' edges to the arrays in parallel, with
// transactions protecting the degree counters and the placement cursors.
// Transactions are very short, read and write sets are tiny, and little of
// the total time is transactional — the low-stress end of the suite.
package ssca2

import (
	"fmt"
	"sort"

	"github.com/stamp-go/stamp/internal/mem"
	"github.com/stamp-go/stamp/internal/rng"
	"github.com/stamp-go/stamp/internal/thread"
	"github.com/stamp-go/stamp/internal/tm"
)

// Atomic-block call sites, registered once for per-block statistics
// attribution (tm.Stats.Blocks).
var (
	blkDegree = tm.NewBlock("ssca2/degree-count")
	blkPlace  = tm.NewBlock("ssca2/adj-place")
)

// Config mirrors the Table IV arguments: -s (2^s nodes), -i/-u (inter-clique
// and unidirectional edge probabilities), -l (max path length, a generator
// detail), -p (max parallel edges).
type Config struct {
	Scale         int     // -s: 2^s nodes
	ProbInter     float64 // -i
	ProbUnidirect float64 // -u
	MaxPathLen    int     // -l (used to scale inter-clique fan-out)
	MaxParallel   int     // -p
	Seed          uint64
}

// App is one ssca2 instance.
type App struct {
	cfg Config
	n   int // node count

	// Generated edge tuples (the Scalable Data Generator output).
	src, dst []int32
	weights  []uint32

	// Arena layout.
	degBase mem.Addr // per-node out-degree counters (phase A)
	idxBase mem.Addr // per-node adjacency start index (prefix sums)
	curBase mem.Addr // per-node placement cursors (phase C)
	adjBase mem.Addr // adjacency array: destination nodes
	wgtBase mem.Addr // adjacency array: weights
}

// New runs the data generator: nodes are grouped into cliques (max size
// derived from scale), cliques are fully connected internally with up to
// MaxParallel parallel edges, and neighbouring cliques are linked with
// probability ProbInter; ProbUnidirect of all links are one-way.
func New(cfg Config) *App {
	if cfg.Scale < 2 {
		cfg.Scale = 2
	}
	if cfg.MaxParallel < 1 {
		cfg.MaxParallel = 1
	}
	if cfg.MaxPathLen < 1 {
		cfg.MaxPathLen = 1
	}
	a := &App{cfg: cfg, n: 1 << cfg.Scale}
	r := rng.New(cfg.Seed ^ 0x7373636132)

	maxClique := cfg.Scale // SSCA2 uses small cliques relative to n
	if maxClique < 2 {
		maxClique = 2
	}
	addEdge := func(u, v int) {
		par := 1 + r.Intn(cfg.MaxParallel)
		for p := 0; p < par; p++ {
			a.src = append(a.src, int32(u))
			a.dst = append(a.dst, int32(v))
			a.weights = append(a.weights, r.Uint32()%1024+1)
		}
	}
	var cliqueStart []int
	for base := 0; base < a.n; {
		cliqueStart = append(cliqueStart, base)
		size := 1 + r.Intn(maxClique)
		if base+size > a.n {
			size = a.n - base
		}
		// Intra-clique: full connectivity.
		for i := 0; i < size; i++ {
			for j := i + 1; j < size; j++ {
				u, v := base+i, base+j
				addEdge(u, v)
				if r.Float64() >= cfg.ProbUnidirect {
					addEdge(v, u)
				}
			}
		}
		base += size
	}
	// Inter-clique links: each clique connects to a few following cliques
	// (fan-out scaled by MaxPathLen) with probability ProbInter.
	for ci, base := range cliqueStart {
		for hop := 1; hop <= cfg.MaxPathLen && ci+hop < len(cliqueStart); hop++ {
			if r.Float64() < cfg.ProbInter {
				u := base
				v := cliqueStart[ci+hop]
				addEdge(u, v)
				if r.Float64() >= cfg.ProbUnidirect {
					addEdge(v, u)
				}
			}
		}
	}
	return a
}

// Name implements apps.App.
func (a *App) Name() string { return "ssca2" }

// Edges returns the generated edge count (for tests).
func (a *App) Edges() int { return len(a.src) }

// ArenaWords implements apps.App.
func (a *App) ArenaWords() int {
	return 3*a.n + 2*len(a.src) + 256
}

// Setup implements apps.App: allocates the graph arrays.
func (a *App) Setup(ar *mem.Arena) {
	a.degBase = ar.Alloc(a.n)
	a.idxBase = ar.Alloc(a.n)
	a.curBase = ar.Alloc(a.n)
	a.adjBase = ar.Alloc(len(a.src))
	a.wgtBase = ar.Alloc(len(a.src))
}

// Run implements apps.App: Kernel 1.
func (a *App) Run(sys tm.System, team *thread.Team) {
	m := len(a.src)
	direct := mem.Direct{A: sys.Arena()}
	team.Run(func(tid int) {
		th := sys.Thread(tid)
		lo, hi := tid*m/team.N(), (tid+1)*m/team.N()

		// The atomic blocks take their operands from these per-worker
		// variables, so each closure is built once per worker instead of once
		// per transaction: the timed region allocates nothing per edge, and
		// the Go collector stays out of it.
		var u mem.Addr
		var v, w uint64
		degree := func(tx tm.Tx) {
			d := a.degBase + u
			tx.Store(d, tx.Load(d)+1)
		}
		place := func(tx tm.Tx) {
			cur := tx.Load(a.curBase + u)
			tx.Store(a.curBase+u, cur+1)
			pos := mem.Addr(tx.Load(a.idxBase+u) + cur)
			tx.Store(a.adjBase+pos, v)
			tx.Store(a.wgtBase+pos, w)
		}

		// Phase A: transactional out-degree counting.
		for e := lo; e < hi; e++ {
			u = mem.Addr(a.src[e])
			th.AtomicAt(blkDegree, degree)
		}
		team.Barrier().Wait()

		// Phase B: prefix sums (master), like the original's serial scan.
		if tid == 0 {
			var sum uint64
			for v := 0; v < a.n; v++ {
				direct.Store(a.idxBase+mem.Addr(v), sum)
				sum += direct.Load(a.degBase + mem.Addr(v))
			}
		}
		team.Barrier().Wait()

		// Phase C: transactional placement into the adjacency arrays.
		for e := lo; e < hi; e++ {
			u, v, w = mem.Addr(a.src[e]), uint64(a.dst[e]), uint64(a.weights[e])
			th.AtomicAt(blkPlace, place)
		}
	})
}

// Verify implements apps.App: the adjacency arrays must hold exactly the
// generated edge multiset, segmented by source node.
func (a *App) Verify(ar *mem.Arena) error {
	d := mem.Direct{A: ar}
	// Degree check.
	want := make([]uint64, a.n)
	for _, u := range a.src {
		want[u]++
	}
	var sum uint64
	for v := 0; v < a.n; v++ {
		got := d.Load(a.degBase + mem.Addr(v))
		if got != want[v] {
			return fmt.Errorf("ssca2: node %d degree = %d, want %d", v, got, want[v])
		}
		if idx := d.Load(a.idxBase + mem.Addr(v)); idx != sum {
			return fmt.Errorf("ssca2: node %d index = %d, want %d", v, idx, sum)
		}
		if cur := d.Load(a.curBase + mem.Addr(v)); cur != want[v] {
			return fmt.Errorf("ssca2: node %d cursor = %d, want %d", v, cur, want[v])
		}
		sum += want[v]
	}
	// Edge multiset check per node: (dst, weight) pairs must match.
	wantAdj := make(map[int32][]ew, a.n)
	for e := range a.src {
		wantAdj[a.src[e]] = append(wantAdj[a.src[e]], ew{uint64(a.dst[e]), uint64(a.weights[e])})
	}
	for v := 0; v < a.n; v++ {
		start := d.Load(a.idxBase + mem.Addr(v))
		var got []ew
		for i := uint64(0); i < want[v]; i++ {
			got = append(got, ew{
				d.Load(a.adjBase + mem.Addr(start+i)),
				d.Load(a.wgtBase + mem.Addr(start+i)),
			})
		}
		exp := wantAdj[int32(v)]
		sortEW(got)
		sortEW(exp)
		for i := range exp {
			if got[i] != exp[i] {
				return fmt.Errorf("ssca2: node %d adjacency mismatch at %d: %v != %v", v, i, got[i], exp[i])
			}
		}
	}
	return nil
}

// ew is a (destination, weight) pair used by Verify.
type ew struct {
	v uint64
	w uint64
}

func sortEW(s []ew) {
	sort.Slice(s, func(i, j int) bool {
		if s[i].v != s[j].v {
			return s[i].v < s[j].v
		}
		return s[i].w < s[j].w
	})
}
