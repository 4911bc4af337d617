package norec

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"github.com/stamp-go/stamp/internal/mem"
	"github.com/stamp-go/stamp/internal/thread"
	"github.com/stamp-go/stamp/internal/tm"
)

// TestCommitStorm pins the one writer commit (CAS, write back, tick) under
// load: transfers between accounts — each thread inside its own accounts
// (disjoint write sets) or across all of them (overlapping) — interleaved
// with read-only scans of the total, on one and two Ps. Every commit that
// reaches the lock takes it exactly once: all of them on stm-norec, only
// the ones that stored on stm-norec-ro. The total is conserved and no scan
// sees it torn.
func TestCommitStorm(t *testing.T) {
	const (
		threads   = 4
		perThread = 4 // accounts a thread owns in the disjoint shape
		accounts  = threads * perThread
		each      = 100 // initial balance of every account
		perT      = 1000
	)
	for _, procs := range []int{1, 2} {
		for _, ro := range []bool{false, true} {
			for _, disjoint := range []bool{true, false} {
				t.Run(fmt.Sprintf("procs=%d/ro=%v/disjoint=%v", procs, ro, disjoint), func(t *testing.T) {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
					arena := mem.NewArena(1 << 12)
					accs := make([]mem.Addr, accounts)
					for i := range accs {
						accs[i] = arena.Alloc(1)
						arena.Store(accs[i], each)
					}
					sys := newSysT(t, ro, arena, threads)
					var torn, writers [threads]uint64
					thread.NewTeam(threads).Run(func(tid int) {
						th := sys.Thread(tid)
						for i := 0; i < perT; i++ {
							if i%4 == 3 {
								th.Atomic(func(tx tm.Tx) {
									var sum uint64
									for _, a := range accs {
										sum += tx.Load(a)
									}
									if sum != accounts*each {
										torn[tid]++
									}
								})
								continue
							}
							from, to := (tid+i)%accounts, (tid*3+i*7)%accounts
							if disjoint {
								from, to = tid*perThread+from%perThread, tid*perThread+to%perThread
							}
							var wrote bool
							th.Atomic(func(tx tm.Tx) {
								wrote = false
								f := tx.Load(accs[from])
								if f == 0 {
									return
								}
								tm.Spin(1100) // yields once: peers commit between this read and our commit
								tx.Store(accs[from], f-1)
								tx.Store(accs[to], tx.Load(accs[to])+1)
								wrote = true
							})
							if wrote {
								writers[tid]++
							}
						}
					})
					var sum, writerCommits uint64
					for _, a := range accs {
						sum += arena.Load(a)
					}
					for tid := range torn {
						if torn[tid] != 0 {
							t.Errorf("thread %d observed %d torn totals", tid, torn[tid])
						}
						writerCommits += writers[tid]
					}
					if sum != accounts*each {
						t.Errorf("total = %d, want %d", sum, accounts*each)
					}
					st := sys.Stats()
					if st.Total.Commits != threads*perT {
						t.Errorf("commits = %d, want %d", st.Total.Commits, threads*perT)
					}
					want := st.Total.Commits
					if ro {
						want = writerCommits
					}
					if got := sys.LockAcquires(); got != want {
						t.Errorf("lock acquisitions = %d, want %d (commits %d, writer commits %d)",
							got, want, st.Total.Commits, writerCommits)
					}
					if seq := sys.Seq(); seq != 2*want {
						t.Errorf("seq = %d, want %d: one tick pair per lock acquisition", seq, 2*want)
					}
					t.Logf("%d commits, %d aborts, %d lock acquisitions", st.Total.Commits, st.Total.Aborts, want)
				})
			}
		}
	}
}

// TestCommitNeverYields keeps scheduler yields off the commit path (a
// yield on every contended writer commit is what made the batching scheme
// PR 13 deleted lose 1.8-2.8x): the only runtime.Gosched in this package is
// waitQuiescent's bounded-spin backoff behind a lock holder.
func TestCommitNeverYields(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var yielders []string
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			ast.Inspect(fn, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "Gosched" {
					yielders = append(yielders, fn.Name.Name)
				}
				return true
			})
		}
	}
	if want := []string{"waitQuiescent"}; !reflect.DeepEqual(yielders, want) {
		t.Fatalf("runtime.Gosched is called from %v, want only %v", yielders, want)
	}
}
