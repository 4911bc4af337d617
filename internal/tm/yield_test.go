package tm

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestOneYieldSite is the fence around waiting: outside tests, nothing in
// internal/tm/... or internal/thread calls (or takes) runtime.Gosched except
// thread.Waiter.Pause, so every wait-for-peer loop — and every delay that
// yields — is paced by the one helper that spins only while every party
// can hold a P. It widens norec's TestCommitNeverYields, which still pins
// where NOrec pauses.
func TestOneYieldSite(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var sites []string
	for _, dir := range []string{"internal/tm", "internal/thread"} {
		err := filepath.WalkDir(filepath.Join(root, dir), func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			rel, _ := filepath.Rel(root, path)
			for _, decl := range f.Decls {
				ast.Inspect(decl, func(n ast.Node) bool {
					sel, ok := n.(*ast.SelectorExpr)
					if !ok || sel.Sel.Name != "Gosched" {
						return true
					}
					if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "runtime" {
						return true
					}
					sites = append(sites, filepath.ToSlash(rel)+":"+declName(decl))
					return true
				})
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if want := []string{"internal/thread/wait.go:Waiter.Pause"}; !reflect.DeepEqual(sites, want) {
		t.Fatalf("runtime.Gosched is used at %v, want only %v: pace the wait with a thread.Waiter", sites, want)
	}
}

// declName names a top-level declaration: Func, Recv.Method, or "var"/"const".
func declName(d ast.Decl) string {
	fn, ok := d.(*ast.FuncDecl)
	if !ok {
		return d.(*ast.GenDecl).Tok.String()
	}
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return fn.Name.Name
	}
	recv := fn.Recv.List[0].Type
	if star, ok := recv.(*ast.StarExpr); ok {
		recv = star.X
	}
	if id, ok := recv.(*ast.Ident); ok {
		return id.Name + "." + fn.Name.Name
	}
	return fn.Name.Name
}
