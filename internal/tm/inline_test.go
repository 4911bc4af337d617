package tm

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestReadBarriersInlineFilter is the fence around the first step of every
// lazy read barrier, the write-buffer lookup. txset.WriteSet.Get is over the
// inliner's budget, so a barrier that calls it unguarded pays a function
// call on every load; the filter costs one multiply and a branch only if it
// inlines. So each barrier below must call Get only inside an
// `if ….MayContain(a)` guard, and `go build -gcflags=-m` must report every
// such MayContain call inlined — which also catches an edit that pushes
// MayContain itself over the budget.
func TestReadBarriersInlineFilter(t *testing.T) {
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command on PATH")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	barriers := []struct{ file, fn string }{
		{"internal/tm/norec/norec.go", "norecTx.Load"}, // stm-norec, stm-norec-ro
		{"internal/tm/tl2/lazy.go", "LazyTx.Load"},     // stm-lazy, stm-mv's writers
		{"internal/tm/mv/mv.go", "mvTx.Load"},          // stm-mv's snapshot attempts
		{"internal/tm/hybrid/lazy.go", "lazyTx.Load"},  // hybrid-lazy
		{"internal/tm/htmsim/lazy.go", "lazyTx.Load"},  // htm-lazy
	}

	// Source side: where each barrier tests the filter.
	fset := token.NewFileSet()
	guards := map[string][]int{} // file -> lines of MayContain guards
	pkgs := map[string]bool{}
	for _, b := range barriers {
		f, err := parser.ParseFile(fset, filepath.Join(root, b.file), nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		pkgs["./"+filepath.Dir(b.file)] = true
		var fn *ast.FuncDecl
		for _, d := range f.Decls {
			if declName(d) == b.fn {
				fn = d.(*ast.FuncDecl)
			}
		}
		if fn == nil {
			t.Fatalf("%s: no %s", b.file, b.fn)
		}
		guarded := map[*ast.CallExpr]bool{}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			ifs, ok := n.(*ast.IfStmt)
			if !ok || !isMethodCall(ifs.Cond, "MayContain") {
				return true
			}
			guards[b.file] = append(guards[b.file], fset.Position(ifs.Cond.Pos()).Line)
			ast.Inspect(ifs.Body, func(n ast.Node) bool {
				if isMethodCall(n, "Get") {
					guarded[n.(*ast.CallExpr)] = true
				}
				return true
			})
			return true
		})
		if len(guards[b.file]) == 0 {
			t.Errorf("%s: %s has no MayContain guard before its write-buffer lookup", b.file, b.fn)
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			if isMethodCall(n, "Get") && !guarded[n.(*ast.CallExpr)] {
				t.Errorf("%s:%d: %s calls Get outside a MayContain guard: a call on every load",
					b.file, fset.Position(n.Pos()).Line, b.fn)
			}
			return true
		})
	}

	// Compiler side: every guard inlined.
	args := []string{"build", "-gcflags=-m"}
	for p := range pkgs {
		args = append(args, p)
	}
	cmd := exec.Command(gobin, args...)
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	inlined := map[string]bool{}
	for _, line := range strings.Split(string(out), "\n") {
		if !strings.HasSuffix(line, "inlining call to txset.(*WriteSet).MayContain") {
			continue
		}
		// "internal/tm/norec/norec.go:160:18: inlining call to ..."
		parts := strings.SplitN(filepath.ToSlash(line), ":", 3)
		if len(parts) == 3 {
			inlined[strings.TrimPrefix(parts[0], "./")+":"+parts[1]] = true
		}
	}
	for file, lines := range guards {
		for _, l := range lines {
			if key := file + ":" + strconv.Itoa(l); !inlined[key] {
				t.Errorf("%s: the compiler did not inline the write filter (WriteSet.MayContain) here", key)
			}
		}
	}
}

// isMethodCall reports whether n is a call x.name(...).
func isMethodCall(n ast.Node, name string) bool {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == name
}
