package tm

import (
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/stamp-go/stamp/internal/mem"
)

// fakeTx is a protocol whose hooks only log what the driver had done by the
// time it called them.
type fakeTx struct {
	TxCore
	log         *[]string
	failCommits int // Commit reports a write-write conflict this many times
}

func (x *fakeTx) logf(format string, args ...any) {
	*x.log = append(*x.log, fmt.Sprintf(format, args...))
}

func (x *fakeTx) Begin(aborts int, readOnly bool) {
	x.logf("begin attempt=%d ro=%t barriers=%d", aborts, readOnly, x.Loads+x.Stores)
}

func (x *fakeTx) Commit() bool {
	if x.failCommits > 0 {
		x.failCommits--
		x.Info.Set(CauseWriteWrite, 0, NoBlock)
		x.logf("commit=false")
		return false
	}
	x.logf("commit=true")
	return true
}

func (x *fakeTx) Rollback() { x.logf("rollback accounted=%d", x.Stats.Aborts) }

func (x *fakeTx) Load(a mem.Addr) uint64     { x.Loads++; return x.Mem.Load(a) }
func (x *fakeTx) Store(a mem.Addr, v uint64) { x.Stores++; x.Mem.Store(a, v) }
func (x *fakeTx) EarlyRelease(mem.Addr)      {}

// logCM is the policy under the governor; the governor forwards the three
// lifecycle hooks to it (OnCommit also from AbandonBlock, as the reset).
type logCM struct {
	noneCM
	tx *fakeTx
}

func (c *logCM) OnStart()      { c.tx.logf("cm.start") }
func (c *logCM) OnAbort(n int) { c.tx.logf("cm.abort %d accounted=%d", n, c.tx.Stats.Aborts) }
func (c *logCM) OnCommit()     { c.tx.logf("cm.reset block=%d", c.tx.curBlock.Load()) }

// TestDriverContract pins the order of hooks and accounting in the one
// retry loop, for the three ways a block can end.
func TestDriverContract(t *testing.T) {
	const blk = BlockID(7)
	var firstAlloc mem.Addr // the terminal case's successful allocation
	type outcome struct{ starts, commits, aborts, wasted uint64 }
	cases := []struct {
		name        string
		failCommits int
		body        func(tx Tx, attempt int)
		bails       bool
		want        []string
		causes      map[AbortCause]uint64
		stats       outcome
	}{
		{
			name: "commit first try",
			body: func(tx Tx, _ int) { tx.Store(1, tx.Load(1)+1) },
			want: []string{
				"cm.start",
				"begin attempt=0 ro=false barriers=0",
				"commit=true",
				"cm.reset block=0",
			},
			stats: outcome{starts: 1, commits: 1},
		},
		{
			name:        "two aborts then commit",
			failCommits: 1,
			body: func(tx Tx, attempt int) {
				tx.Load(1)
				if attempt == 0 {
					tx.Restart()
				}
			},
			want: []string{
				"cm.start",
				"begin attempt=0 ro=false barriers=0",
				"rollback accounted=0", // the body unwound; Commit never ran
				"cm.abort 1 accounted=1",
				"begin attempt=1 ro=false barriers=0", // registers reset before Begin
				"commit=false",
				"rollback accounted=1",
				"cm.abort 2 accounted=2",
				"begin attempt=2 ro=false barriers=0",
				"commit=true",
				"cm.reset block=0",
			},
			causes: map[AbortCause]uint64{CauseExplicitRetry: 1, CauseWriteWrite: 1},
			stats:  outcome{starts: 1, commits: 1, aborts: 2, wasted: 2},
		},
		{
			name: "terminal alloc failure",
			body: func(tx Tx, _ int) {
				firstAlloc = tx.Alloc(4)
				tx.Store(firstAlloc, 1)
				tx.Alloc(1 << 20) // cannot fit
			},
			bails: true,
			want: []string{
				"cm.start",
				"begin attempt=0 ro=false barriers=0",
				"rollback accounted=0",
				"cm.reset block=0", // AbandonBlock, after curBlock cleared; no cm.abort
			},
			causes: map[AbortCause]uint64{CauseAllocExhausted: 1},
			stats:  outcome{starts: 1, aborts: 1, wasted: 1},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var log []string
			cfg := Config{Arena: mem.NewArena(1 << 10)}.Defaults()
			pool, err := NewCMPool(cfg, NoCM)
			if err != nil {
				t.Fatal(err)
			}
			tx := &fakeTx{log: &log, failCommits: c.failCommits}
			rt := &Runtime[*fakeTx]{Shared: Shared{Cfg: cfg, name: "fake"}}
			rt.cmFor = func(id int, st *ThreadStats) ContentionManager {
				return &governor{inner: &logCM{tx: tx}, pool: pool, id: id, st: st}
			}
			rt.Bind(func(int) *fakeTx { return tx })

			attempt := 0
			var bailed any
			func() {
				defer func() { bailed = recover() }()
				rt.Thread(0).AtomicAt(blk, func(x Tx) {
					if got := rt.BlockOf(0); got != blk {
						t.Errorf("BlockOf inside the block = %d, want %d", got, blk)
					}
					n := attempt
					attempt++
					c.body(x, n)
				})
			}()
			if af, ok := bailed.(AllocFailure); ok != c.bails {
				t.Fatalf("unwound with %v, bails want %v", bailed, c.bails)
			} else if ok && !errors.Is(af.Err, mem.ErrArenaFull) {
				t.Fatalf("AllocFailure.Err = %v", af.Err)
			}
			if !reflect.DeepEqual(log, c.want) {
				t.Errorf("hook order:\n got  %s\n want %s", strings.Join(log, "\n      "), strings.Join(c.want, "\n      "))
			}
			st := rt.Stats().Total
			if got := (outcome{st.Starts, st.Commits, st.Aborts, st.Wasted}); got != c.stats {
				t.Errorf("starts/commits/aborts/wasted = %+v, want %+v", got, c.stats)
			}
			bails := uint64(0)
			if c.bails {
				bails = 1
			}
			if st.Starts != st.Commits+bails {
				t.Errorf("Starts %d != Commits %d + bails %d", st.Starts, st.Commits, bails)
			}
			for cause, n := range st.AbortCauses {
				if want := c.causes[AbortCause(cause)]; n != want {
					t.Errorf("cause %s counted %d, want %d", CauseNames()[cause], n, want)
				}
			}
			if got := rt.BlockOf(0); got != NoBlock {
				t.Errorf("curBlock = %d after the block ended, want NoBlock", got)
			}
			if pool.flags[0].Load() != 0 || pool.gatePending.Load() != 0 {
				t.Error("the block left its liveness-gate claim behind")
			}
			if c.bails {
				// res.OnAbort ran before the unwind: the failed attempt's
				// allocation is back, so the next block gets the same words.
				rt.Thread(0).Atomic(func(x Tx) {
					if a := x.Alloc(4); a != firstAlloc {
						t.Errorf("next block allocated at %d, want the reclaimed %d", a, firstAlloc)
					}
				})
			}
		})
	}
}

// TestOneRetryLoop is the fence against a second copy of the retry loop:
// outside tests, Attempt is called from driver.go and nowhere else in the
// module.
func TestOneRetryLoop(t *testing.T) {
	if callers, want := tmCallers(t, "Attempt"), []string{"internal/tm/driver.go"}; !reflect.DeepEqual(callers, want) {
		t.Fatalf("tm.Attempt is called from %v, want only %v: every runtime runs under the driver's loop", callers, want)
	}
}

// TestOneReadOnlyLookup is the fence around the read-only mark: outside
// tests, only the driver looks BlockReadOnly up — once per block entry —
// and runtimes read it from Begin's readOnly argument.
func TestOneReadOnlyLookup(t *testing.T) {
	if callers, want := tmCallers(t, "BlockReadOnly"), []string{"internal/tm/driver.go"}; !reflect.DeepEqual(callers, want) {
		t.Fatalf("tm.BlockReadOnly is called from %v, want only %v: the driver passes the mark to Begin", callers, want)
	}
}

// tmCallers lists, one entry per call, the non-test files of the module
// (bench/ is another module) that call package tm's function fn.
func tmCallers(t *testing.T, fn string) []string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var callers []string
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			_, nested := os.Stat(filepath.Join(path, "go.mod"))
			if strings.HasPrefix(d.Name(), ".") || (path != root && nested == nil) {
				return filepath.SkipDir // VCS metadata, or another module (bench/)
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			switch fun := call.Fun.(type) {
			case *ast.SelectorExpr:
				if pkg, ok := fun.X.(*ast.Ident); !ok || pkg.Name != "tm" || fun.Sel.Name != fn {
					return true
				}
			case *ast.Ident:
				if fun.Name != fn || f.Name.Name != "tm" {
					return true
				}
			default:
				return true
			}
			rel, _ := filepath.Rel(root, path)
			callers = append(callers, filepath.ToSlash(rel))
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return callers
}
