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
// with read-only scans of the total, on one and two Ps. The scans run either
// as a marked read-only block (ro: a log-free first attempt) or unmarked (a
// logged, store-free commit). Every writer commit takes the lock exactly
// once and ticks seq by two; no scan commit, of either kind, touches it.
// The total is conserved and no scan sees it torn.
func TestCommitStorm(t *testing.T) {
	const (
		threads   = 4
		perThread = 4 // accounts a thread owns in the disjoint shape
		accounts  = threads * perThread
		each      = 100 // initial balance of every account
		perT      = 1000
	)
	scanBlk := map[bool]tm.BlockID{
		true:  tm.NewROBlock("norec-test/commit-storm-scan-ro"),
		false: tm.NewBlock("norec-test/commit-storm-scan"),
	}
	for _, procs := range []int{1, 2} {
		for _, ro := range []bool{true, false} {
			for _, disjoint := range []bool{true, false} {
				t.Run(fmt.Sprintf("procs=%d/ro=%v/disjoint=%v", procs, ro, disjoint), func(t *testing.T) {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
					arena := mem.NewArena(1 << 12)
					accs := make([]mem.Addr, accounts)
					for i := range accs {
						accs[i] = arena.Alloc(1)
						arena.Store(accs[i], each)
					}
					sys := newSysT(t, arena, threads)
					var torn, writers [threads]uint64
					thread.NewTeam(threads).Run(func(tid int) {
						th := sys.Thread(tid)
						for i := 0; i < perT; i++ {
							if i%4 == 3 {
								th.AtomicAt(scanBlk[ro], func(tx tm.Tx) {
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
					if got := sys.LockAcquires(); got != writerCommits {
						t.Errorf("lock acquisitions = %d, want one per writer commit, %d (commits %d)",
							got, writerCommits, st.Total.Commits)
					}
					if seq := sys.Seq(); seq != 2*writerCommits {
						t.Errorf("seq = %d, want %d: one tick pair per writer commit", seq, 2*writerCommits)
					}
					t.Logf("%d commits, %d aborts, %d writer commits", st.Total.Commits, st.Total.Aborts, writerCommits)
				})
			}
		}
	}
}

// TestCommitNeverYields keeps scheduler yields off the commit path (a
// yield on every contended writer commit is what made the batching scheme
// PR 13 deleted lose 1.8-2.8x): the only wait in this package is
// waitQuiescent's, behind a lock holder, and it waits through the
// thread.Waiter every runtime uses (tm's TestOneYieldSite fences
// runtime.Gosched itself into that helper).
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
				if sel, ok := n.(*ast.SelectorExpr); ok && (sel.Sel.Name == "Gosched" || sel.Sel.Name == "Pause") {
					yielders = append(yielders, fn.Name.Name+"."+sel.Sel.Name)
				}
				return true
			})
		}
	}
	if want := []string{"waitQuiescent.Pause"}; !reflect.DeepEqual(yielders, want) {
		t.Fatalf("NOrec waits or yields in %v, want only %v", yielders, want)
	}
}
