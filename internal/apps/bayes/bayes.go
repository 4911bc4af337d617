// Package bayes implements STAMP's bayes benchmark: learning the structure
// of a Bayesian network from observed data with a hill-climbing search over
// edge insertions, using an adtree for efficient sufficient statistics.
// Each learning step — scoring every candidate parent against the current
// network, checking acyclicity, and inserting the chosen dependency — is one
// transaction, so transactions are very long with large read sets, nearly
// all execution time is transactional, and contention is high because the
// dependency subgraphs change constantly.
package bayes

import (
	"fmt"
	"math"

	"github.com/stamp-go/stamp/internal/container"
	"github.com/stamp-go/stamp/internal/mem"
	"github.com/stamp-go/stamp/internal/rng"
	"github.com/stamp-go/stamp/internal/thread"
	"github.com/stamp-go/stamp/internal/tm"
)

// Atomic-block call sites, registered once for per-block statistics
// attribution (tm.Stats.Blocks). The
// learn-edge block is a long read-mostly scan (it scores every candidate
// parent before deciding whether to insert one edge), so it carries the
// read-only mark: on stm-mv the scan runs on the zero-abort snapshot path,
// and the minority of attempts that insert fall through to the write-path
// commit.
var (
	blkPopTask  = tm.NewBlock("bayes/pop-task")
	blkLearn    = tm.NewROBlock("bayes/learn-edge")
	blkPushTask = tm.NewBlock("bayes/push-task")
)

// Config mirrors the Table IV arguments: -v (variables), -r (records),
// -n/-p (parent structure of the generating network), -i (edge insert
// penalty), -e (max edges learned per variable).
type Config struct {
	Vars          int // -v (max 48)
	Records       int // -r
	NumParent     int // -n: average parents per variable in the source net
	PercentParent int // -p: parent candidate pool percent
	InsertPenalty int // -i
	MaxEdgeLearn  int // -e
	Seed          uint64
}

// maxLearnParents caps the learned in-degree, like the original.
const maxLearnParents = 4

// App is one bayes instance.
type App struct {
	cfg     Config
	records []uint64 // one bitmask per record
	trueNet [][]int  // generating parents per var (for reference only)

	// Arena layout.
	adRoot  mem.Addr
	parents []container.List // learned parent list per variable
	edges   mem.Addr         // per-var learned edge counter
	tasks   container.Queue  // variable work queue

	words int // ArenaWords, computed on first use
	ran   bool
}

// New generates a random ground-truth network and samples records from it.
func New(cfg Config) *App {
	if cfg.Vars < 2 {
		cfg.Vars = 2
	}
	if cfg.Vars > 48 {
		cfg.Vars = 48
	}
	if cfg.Records < leafCutoff {
		cfg.Records = leafCutoff
	}
	if cfg.MaxEdgeLearn < 1 {
		cfg.MaxEdgeLearn = 1
	}
	a := &App{cfg: cfg}
	r := rng.New(cfg.Seed ^ 0x626179)

	// Ground truth: variables in topological order 0..v-1; each picks
	// NumParent parents on average from the PercentParent% of preceding
	// variables closest to it.
	a.trueNet = make([][]int, cfg.Vars)
	for v := 1; v < cfg.Vars; v++ {
		pool := v * cfg.PercentParent / 100
		if pool < 1 {
			pool = 1
		}
		for p := 0; p < cfg.NumParent; p++ {
			cand := v - 1 - r.Intn(pool)
			if cand < 0 {
				continue
			}
			dup := false
			for _, e := range a.trueNet[v] {
				if e == cand {
					dup = true
				}
			}
			if !dup {
				a.trueNet[v] = append(a.trueNet[v], cand)
			}
		}
	}
	// Conditional probability tables: each variable's chance of being 1
	// given the parity of its parents (a strong, learnable dependency).
	bias := make([]float64, cfg.Vars)
	for v := range bias {
		bias[v] = 0.1 + 0.8*r.Float64()
	}
	a.records = make([]uint64, cfg.Records)
	for i := range a.records {
		var rec uint64
		for v := 0; v < cfg.Vars; v++ {
			parity := uint64(0)
			for _, p := range a.trueNet[v] {
				parity ^= rec >> uint(p) & 1
			}
			prob := bias[v]
			if parity == 1 {
				prob = 1 - prob
			}
			if r.Float64() < prob {
				rec |= 1 << uint(v)
			}
		}
		a.records[i] = rec
	}
	return a
}

// Name implements apps.App.
func (a *App) Name() string { return "bayes" }

// ArenaWords implements apps.App. Setup's part is counted, not estimated:
// the layout Setup allocates is replayed on a word counter. Run adds at
// most one list node per learnable edge, allocated through per-thread
// tx.Alloc chunks whose unused tails tm.Config.NewReserver keeps under an
// eighth of the arena; the rest of that eighth's headroom covers the
// chunks' line alignment.
func (a *App) ArenaWords() int {
	if a.words == 0 {
		var c wordCounter
		a.layout(&c)
		setup := mem.WordsPerLine + c.n // the arena never allocates line 0
		run := a.cfg.Vars * min(maxLearnParents, a.cfg.MaxEdgeLearn) * container.ListNodeWords
		a.words = setup + run + (setup+run)/7 + 1024
	}
	return a.words
}

// Setup implements apps.App: builds the adtree and the empty network.
func (a *App) Setup(ar *mem.Arena) {
	d := mem.Direct{A: ar}
	a.adRoot, a.parents, a.edges, a.tasks = a.layout(d)
	a.ran = false
}

// layout allocates and fills Setup's arena structures through m: the
// adtree, an empty learned-parent list per variable, the learned-edge
// counters and the task queue, loaded with every variable — sized Vars+1,
// so Run's re-pushes never grow it. It never reads m, so ArenaWords can
// replay it on a wordCounter.
func (a *App) layout(m tm.Mem) (root mem.Addr, parents []container.List, edges mem.Addr, tasks container.Queue) {
	subset := make([]int, len(a.records))
	for i := range subset {
		subset[i] = i
	}
	root = buildADTree(m, a.records, subset, 0, a.cfg.Vars)
	parents = make([]container.List, a.cfg.Vars)
	for v := range parents {
		parents[v] = container.NewList(m)
	}
	edges = m.Alloc(a.cfg.Vars)
	tasks = container.LoadQueue(m, a.cfg.Vars+1, a.cfg.Vars, func(v int) uint64 { return uint64(v) })
	return root, parents, edges, tasks
}

// wordCounter is the tm.Mem ArenaWords replays layout on: it counts the
// words allocated, rounding a request below one word up to one as
// mem.Arena.Alloc does, and drops the stores.
type wordCounter struct{ n int }

func (c *wordCounter) Alloc(n int) mem.Addr {
	c.n += max(n, 1)
	return mem.Addr(c.n)
}
func (c *wordCounter) Load(mem.Addr) uint64   { panic("bayes: layout read the arena it is sizing") }
func (c *wordCounter) Store(mem.Addr, uint64) {}
func (c *wordCounter) Free(mem.Addr, int)     {}

// familyScore computes the log-likelihood of variable y given the parent
// set pa (sorted), via adtree counts read through m.
func (a *App) familyScore(m tm.Mem, y int, pa []int) float64 {
	nAssign := 1 << len(pa)
	score := 0.0
	cons := make([]varVal, 0, len(pa)+1)
	for mask := 0; mask < nAssign; mask++ {
		cons = cons[:0]
		for i, p := range pa {
			cons = append(cons, varVal{v: p, val: uint64(mask >> i & 1)})
		}
		nPa := adCountQuery(m, a.records, a.adRoot, cons, 0)
		if nPa == 0 {
			continue
		}
		consY := insertSorted(cons, varVal{v: y, val: 1})
		n1 := adCountQuery(m, a.records, a.adRoot, consY, 0)
		n0 := nPa - n1
		if n1 > 0 {
			score += float64(n1) * math.Log(float64(n1)/float64(nPa))
		}
		if n0 > 0 {
			score += float64(n0) * math.Log(float64(n0)/float64(nPa))
		}
	}
	return score
}

// insertSorted returns a fresh constraint slice with vv added in var order.
func insertSorted(cons []varVal, vv varVal) []varVal {
	out := make([]varVal, 0, len(cons)+1)
	added := false
	for _, c := range cons {
		if !added && vv.v < c.v {
			out = append(out, vv)
			added = true
		}
		out = append(out, c)
	}
	if !added {
		out = append(out, vv)
	}
	return out
}

// penalty is the structure cost of adding one parent to a family that
// already has k parents (BIC-flavoured, scaled by the -i argument).
func (a *App) penalty(k int) float64 {
	return float64(a.cfg.InsertPenalty) * 0.5 * math.Log2(float64(len(a.records))) * float64(int(1)<<uint(k))
}

// Run implements apps.App: threads drain the task queue; each task is one
// long transaction that scores all candidate parents for a variable and
// inserts the best dependency.
func (a *App) Run(sys tm.System, team *thread.Team) {
	v := a.cfg.Vars
	team.Run(func(tid int) {
		th := sys.Thread(tid)
		htm := isHTM(sys.Name())
		var adMem tm.Mem
		for {
			var task uint64
			have := false
			th.AtomicAt(blkPopTask, func(tx tm.Tx) {
				task, have = a.tasks.Pop(tx)
			})
			if !have {
				return
			}
			y := int(task)
			inserted := false
			th.AtomicAt(blkLearn, func(tx tm.Tx) {
				inserted = false
				// adtree reads: implicitly tracked on HTMs, uninstrumented
				// on software systems (the original code has no barriers on
				// adtree accesses).
				if htm {
					adMem = tx
				} else {
					adMem = peekMem{tx}
				}
				// Read the current family transactionally.
				var pa []int
				a.parents[y].Each(tx, func(k, _ uint64) bool {
					pa = append(pa, int(k))
					return true
				})
				if len(pa) >= maxLearnParents {
					return
				}
				if tx.Load(a.edges+mem.Addr(y)) >= uint64(a.cfg.MaxEdgeLearn) {
					return
				}
				base := a.familyScore(adMem, y, pa)
				bestGain := 0.0
				bestX := -1
				for x := 0; x < v; x++ {
					if x == y || containsInt(pa, x) {
						continue
					}
					gain := a.familyScore(adMem, y, insertSortedInt(pa, x)) - base - a.penalty(len(pa))
					if gain > bestGain {
						bestGain, bestX = gain, x
					}
				}
				if bestX < 0 {
					return
				}
				// Acyclicity: adding bestX as parent of y is illegal if y is
				// an ancestor of bestX (transactional walk of parent lists).
				if a.reachesAncestor(tx, bestX, y) {
					return
				}
				a.parents[y].Insert(tx, uint64(bestX), 1)
				tx.Store(a.edges+mem.Addr(y), tx.Load(a.edges+mem.Addr(y))+1)
				inserted = true
			})
			if inserted {
				// More edges may be learnable for this variable.
				th.AtomicAt(blkPushTask, func(tx tm.Tx) {
					a.tasks.Push(tx, uint64(y))
				})
			}
		}
	})
	a.ran = true
}

// reachesAncestor reports whether target is an ancestor of start following
// parent links (transactional reads of the shared dependency graph).
func (a *App) reachesAncestor(tx tm.Tx, start, target int) bool {
	seen := make(map[int]bool)
	stack := []int{start}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n == target {
			return true
		}
		if seen[n] {
			continue
		}
		seen[n] = true
		a.parents[n].Each(tx, func(k, _ uint64) bool {
			stack = append(stack, int(k))
			return true
		})
	}
	return false
}

func containsInt(s []int, x int) bool {
	for _, v := range s {
		if v == x {
			return true
		}
	}
	return false
}

func insertSortedInt(s []int, x int) []int {
	out := make([]int, 0, len(s)+1)
	added := false
	for _, v := range s {
		if !added && x < v {
			out = append(out, x)
			added = true
		}
		out = append(out, v)
	}
	if !added {
		out = append(out, x)
	}
	return out
}

func isHTM(name string) bool {
	return len(name) >= 3 && name[:3] == "htm"
}

// peekMem reads through Tx.Peek (uninstrumented) while writes/allocs pass
// through; the adtree is immutable, so it is never written anyway.
type peekMem struct{ tx tm.Tx }

func (p peekMem) Load(a mem.Addr) uint64     { return p.tx.Peek(a) }
func (p peekMem) Store(a mem.Addr, v uint64) { p.tx.Store(a, v) }
func (p peekMem) Alloc(n int) mem.Addr       { return p.tx.Alloc(n) }
func (p peekMem) Free(a mem.Addr, n int)     { p.tx.Free(a, n) }

// Verify implements apps.App: the learned network must be acyclic, respect
// the in-degree caps, and every learned family must beat the empty family's
// score by more than the structure penalty it paid.
func (a *App) Verify(ar *mem.Arena) error {
	if !a.ran {
		return fmt.Errorf("bayes: Run was never executed")
	}
	d := mem.Direct{A: ar}
	v := a.cfg.Vars
	adj := make([][]int, v) // parent -> children
	indeg := make([]int, v)
	totalEdges := 0
	for y := 0; y < v; y++ {
		var pa []int
		a.parents[y].Each(d, func(k, _ uint64) bool {
			pa = append(pa, int(k))
			return true
		})
		if len(pa) > maxLearnParents {
			return fmt.Errorf("bayes: var %d has %d parents (cap %d)", y, len(pa), maxLearnParents)
		}
		totalEdges += len(pa)
		for _, p := range pa {
			adj[p] = append(adj[p], y)
			indeg[y]++
		}
		// Score check: the family must be worth its penalties.
		if len(pa) > 0 {
			gain := a.familyScore(d, y, pa) - a.familyScore(d, y, nil)
			cost := 0.0
			for k := 0; k < len(pa); k++ {
				cost += a.penalty(k)
			}
			if gain <= 0 {
				return fmt.Errorf("bayes: var %d's learned family does not improve the score (gain %.3f, cost %.3f)", y, gain, cost)
			}
		}
	}
	// Kahn's algorithm: the learned graph must be a DAG.
	queue := []int{}
	for y := 0; y < v; y++ {
		if indeg[y] == 0 {
			queue = append(queue, y)
		}
	}
	visited := 0
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		visited++
		for _, c := range adj[n] {
			indeg[c]--
			if indeg[c] == 0 {
				queue = append(queue, c)
			}
		}
	}
	if visited != v {
		return fmt.Errorf("bayes: learned network has a cycle (%d of %d vars sorted)", visited, v)
	}
	if totalEdges == 0 {
		return fmt.Errorf("bayes: no dependencies learned")
	}
	return nil
}

// LearnedEdges counts the learned dependencies (for tests).
func (a *App) LearnedEdges(ar *mem.Arena) int {
	d := mem.Direct{A: ar}
	n := 0
	for y := 0; y < a.cfg.Vars; y++ {
		n += a.parents[y].Len(d)
	}
	return n
}
