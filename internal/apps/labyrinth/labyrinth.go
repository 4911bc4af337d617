// Package labyrinth implements STAMP's labyrinth benchmark: a variant of
// Lee's routing algorithm (after LEE-TM-p-ws). Threads take (start, end)
// point pairs and connect them with paths of adjacent grid cells in a
// three-dimensional maze. The whole route — privatized grid copy, wavefront
// expansion, traceback, revalidation, and insertion — is one transaction, so
// transactions are very long with very large read/write sets, essentially
// all execution time is transactional, and contention is high.
//
// As in the paper, the grid privatization reads are uninstrumented (Peek)
// on the software and hybrid systems, while on the HTMs every access is
// implicitly tracked, so the copy loop issues real read barriers and then
// early-releases them; each grid point is padded to a full 32-byte cache
// line so early release is sound at line granularity.
package labyrinth

import (
	"fmt"
	"strings"

	"github.com/stamp-go/stamp/internal/container"
	"github.com/stamp-go/stamp/internal/mem"
	"github.com/stamp-go/stamp/internal/rng"
	"github.com/stamp-go/stamp/internal/thread"
	"github.com/stamp-go/stamp/internal/tm"
)

// Atomic-block call sites, registered once for per-block statistics
// attribution (tm.Stats.Blocks) and adaptive protocol selection.
var (
	blkPopJob = tm.NewBlock("labyrinth/pop-job")
	blkRoute  = tm.NewBlock("labyrinth/route-path")
)

// Config mirrors the Table IV arguments: the maze dimensions x, y, z and the
// number of paths n.
type Config struct {
	X, Y, Z int
	Paths   int
	Seed    uint64
}

// Cell values in the shared grid.
const (
	cellEmpty = 0
	// Path cells store pathID + cellPathBase.
	cellPathBase = 2
)

// App is one labyrinth instance.
type App struct {
	cfg   Config
	cells int
	work  []uint64 // packed (src, dst) pairs

	gridBase mem.Addr
	workQ    container.Queue

	// Per-thread routing transcripts, merged by Verify.
	routed [][]routedPath
	failed []int
}

type routedPath struct {
	id   int
	path []int32 // cell indices, src..dst
}

// New generates n random distinct (start, end) pairs in an empty maze, like
// the original random-x*-y*-z*-n* inputs.
func New(cfg Config) *App {
	if cfg.X < 2 {
		cfg.X = 2
	}
	if cfg.Y < 2 {
		cfg.Y = 2
	}
	if cfg.Z < 1 {
		cfg.Z = 1
	}
	a := &App{cfg: cfg, cells: cfg.X * cfg.Y * cfg.Z}
	r := rng.New(cfg.Seed ^ 0x6c616279)
	used := map[int]bool{}
	pick := func() int {
		for {
			c := r.Intn(a.cells)
			if !used[c] {
				used[c] = true
				return c
			}
		}
	}
	for p := 0; p < cfg.Paths && len(used)+2 <= a.cells; p++ {
		src, dst := pick(), pick()
		a.work = append(a.work, uint64(src)<<32|uint64(dst))
	}
	return a
}

// Name implements apps.App.
func (a *App) Name() string { return "labyrinth" }

// ArenaWords implements apps.App: one padded line per grid point plus the
// work queue.
func (a *App) ArenaWords() int {
	return a.cells*mem.WordsPerLine + 2*len(a.work) + 64
}

// Setup implements apps.App.
func (a *App) Setup(ar *mem.Arena) {
	a.gridBase = ar.AllocLines(a.cells * mem.WordsPerLine)
	a.workQ = container.NewQueue(mem.Direct{A: ar}, len(a.work)+1)
	d := mem.Direct{A: ar}
	for _, w := range a.work {
		a.workQ.Push(d, w)
	}
	a.routed = nil
	a.failed = nil
}

// cellAddr returns the padded arena address of cell c.
func (a *App) cellAddr(c int) mem.Addr {
	return a.gridBase + mem.Addr(c*mem.WordsPerLine)
}

// neighbors appends the orthogonal neighbours of cell c to buf.
func (a *App) neighbors(c int, buf []int32) []int32 {
	x := c % a.cfg.X
	y := (c / a.cfg.X) % a.cfg.Y
	z := c / (a.cfg.X * a.cfg.Y)
	if x > 0 {
		buf = append(buf, int32(c-1))
	}
	if x < a.cfg.X-1 {
		buf = append(buf, int32(c+1))
	}
	if y > 0 {
		buf = append(buf, int32(c-a.cfg.X))
	}
	if y < a.cfg.Y-1 {
		buf = append(buf, int32(c+a.cfg.X))
	}
	if z > 0 {
		buf = append(buf, int32(c-a.cfg.X*a.cfg.Y))
	}
	if z < a.cfg.Z-1 {
		buf = append(buf, int32(c+a.cfg.X*a.cfg.Y))
	}
	return buf
}

// Run implements apps.App.
func (a *App) Run(sys tm.System, team *thread.Team) {
	a.routed = make([][]routedPath, team.N())
	a.failed = make([]int, team.N())
	// HTMs track all accesses implicitly: privatization must read through
	// barriers and early-release; STMs and hybrids read uninstrumented.
	htm := strings.HasPrefix(sys.Name(), "htm")

	team.Run(func(tid int) {
		th := sys.Thread(tid)
		private := make([]int32, a.cells) // privatized grid (costs)
		var frontier, next, nbuf []int32
		for {
			var job uint64
			have := false
			th.AtomicAt(blkPopJob, func(tx tm.Tx) {
				job, have = a.workQ.Pop(tx)
			})
			if !have {
				return
			}
			src := int(job >> 32)
			dst := int(job & 0xffffffff)
			pathID := -1
			var path []int32

			th.AtomicAt(blkRoute, func(tx tm.Tx) {
				// Reset both outputs per attempt: an attempt that set pathID
				// and then aborted must not leave it set for a retry that finds
				// no route, or an empty path would be recorded as routed.
				path, pathID = path[:0], -1
				// Privatize the grid ("a per-thread copy of the grid is
				// created and used for the route calculation").
				for c := 0; c < a.cells; c++ {
					addr := a.cellAddr(c)
					var v uint64
					if htm {
						v = tx.Load(addr)
						tx.EarlyRelease(addr)
					} else {
						v = tx.Peek(addr)
					}
					if v == cellEmpty {
						private[c] = 0
					} else {
						private[c] = -1 // occupied
					}
				}
				if private[src] != 0 || private[dst] != 0 {
					return // an endpoint was swallowed by another path: unroutable
				}
				// Lee wavefront expansion on the private copy.
				private[src] = 1
				frontier = append(frontier[:0], int32(src))
				found := false
				for len(frontier) > 0 && !found {
					next = next[:0]
					for _, c := range frontier {
						cost := private[c]
						nbuf = a.neighbors(int(c), nbuf[:0])
						for _, nb := range nbuf {
							if private[nb] != 0 {
								continue
							}
							private[nb] = cost + 1
							if int(nb) == dst {
								found = true
								break
							}
							next = append(next, nb)
						}
						if found {
							break
						}
					}
					frontier, next = next, frontier
				}
				if !found {
					return // no route in the current maze state
				}
				// Traceback from dst to src along decreasing cost.
				path = append(path, int32(dst))
				cur := int32(dst)
				for cur != int32(src) {
					cost := private[cur]
					nbuf = a.neighbors(int(cur), nbuf[:0])
					stepped := false
					for _, nb := range nbuf {
						if private[nb] == cost-1 && private[nb] > 0 {
							path = append(path, nb)
							cur = nb
							stepped = true
							break
						}
					}
					if !stepped {
						tx.Restart() // privatized copy went stale mid-trace
					}
				}
				// Revalidate and insert: re-read every path point
				// transactionally; conflict or occupancy restarts with a
				// fresh copy, exactly as the paper describes.
				for _, c := range path {
					if tx.Load(a.cellAddr(int(c))) != cellEmpty {
						tx.Restart()
					}
				}
				pathID = int(job % (1 << 31)) // unique per job
				for _, c := range path {
					tx.Store(a.cellAddr(int(c)), uint64(cellPathBase+pathID))
				}
			})

			if pathID >= 0 {
				cp := append([]int32(nil), path...)
				// reverse: traceback built dst..src
				for i, j := 0, len(cp)-1; i < j; i, j = i+1, j-1 {
					cp[i], cp[j] = cp[j], cp[i]
				}
				a.routed[tid] = append(a.routed[tid], routedPath{id: pathID, path: cp})
			} else {
				a.failed[tid]++
			}
		}
	})
}

// Verify implements apps.App: routed + failed == jobs; every routed path is
// connected, starts and ends at its endpoints, and owns its grid cells
// exclusively.
func (a *App) Verify(ar *mem.Arena) error {
	d := mem.Direct{A: ar}
	total := 0
	owner := map[int32]int{}
	for tid, paths := range a.routed {
		total += len(paths) + a.failed[tid]
		for _, rp := range paths {
			if len(rp.path) < 2 {
				return fmt.Errorf("labyrinth: path %d too short", rp.id)
			}
			for i, c := range rp.path {
				if got := d.Load(a.cellAddr(int(c))); got != uint64(cellPathBase+rp.id) {
					return fmt.Errorf("labyrinth: path %d cell %d holds %d", rp.id, c, got)
				}
				if prev, taken := owner[c]; taken {
					return fmt.Errorf("labyrinth: cell %d claimed by paths %d and %d", c, prev, rp.id)
				}
				owner[c] = rp.id
				if i > 0 && !a.adjacent(int(rp.path[i-1]), int(c)) {
					return fmt.Errorf("labyrinth: path %d not connected at step %d", rp.id, i)
				}
			}
		}
	}
	if total != len(a.work) {
		return fmt.Errorf("labyrinth: %d outcomes for %d jobs", total, len(a.work))
	}
	// Every non-empty grid cell must belong to some verified path.
	for c := 0; c < a.cells; c++ {
		v := d.Load(a.cellAddr(c))
		if v == cellEmpty {
			continue
		}
		if _, ok := owner[int32(c)]; !ok {
			return fmt.Errorf("labyrinth: orphan cell %d = %d", c, v)
		}
	}
	return nil
}

func (a *App) adjacent(c1, c2 int) bool {
	x1, y1, z1 := c1%a.cfg.X, (c1/a.cfg.X)%a.cfg.Y, c1/(a.cfg.X*a.cfg.Y)
	x2, y2, z2 := c2%a.cfg.X, (c2/a.cfg.X)%a.cfg.Y, c2/(a.cfg.X*a.cfg.Y)
	dx, dy, dz := abs(x1-x2), abs(y1-y2), abs(z1-z2)
	return dx+dy+dz == 1
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// Routed returns the number of successfully routed paths (for tests).
func (a *App) Routed() int {
	n := 0
	for _, p := range a.routed {
		n += len(p)
	}
	return n
}
