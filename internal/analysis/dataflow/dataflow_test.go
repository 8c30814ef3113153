package dataflow_test

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tradeoff/internal/analysis/dataflow"
	"tradeoff/internal/analysis/load"
)

// Regenerate the CFG golden with:
//
//	go test ./internal/analysis/dataflow -run TestCFGGolden -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite the CFG golden file")

// TestCFGGolden pins the block/edge structure the builder produces
// for every fixture function: a CFG regression silently changes what
// the solvers — and through them the four flow-sensitive analyzers —
// can prove, so the structure itself is golden-tested.
func TestCFGGolden(t *testing.T) {
	pkgs, err := load.Fixture("testdata", "cfgtest")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	pkg := pkgs[0]
	var sb strings.Builder
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			g := dataflow.New(fn.Body)
			fmt.Fprintf(&sb, "func %s\n%s\n", fn.Name.Name, g.Dump(pkg.Fset))
		}
	}
	got := sb.String()

	golden := filepath.Join("testdata", "cfgtest.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatalf("writing golden: %v", err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (re-run with -update-golden?): %v", err)
	}
	if got != string(want) {
		t.Errorf("CFG dump differs from golden (re-run with -update-golden if intentional)\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestGraphInvariants checks structural properties on every fixture
// function: edge symmetry, entry reachability, and that reverse
// postorder starts at the entry and contains no duplicates.
func TestGraphInvariants(t *testing.T) {
	pkgs, err := load.Fixture("testdata", "cfgtest")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	pkg := pkgs[0]
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			g := dataflow.New(fn.Body)
			for _, b := range g.Blocks {
				for _, s := range b.Succs {
					if !contains(s.Preds, b) {
						t.Errorf("%s: b%d -> b%d missing the reverse pred edge", fn.Name.Name, b.Index, s.Index)
					}
				}
				for _, p := range b.Preds {
					if !contains(p.Succs, b) {
						t.Errorf("%s: b%d <- b%d missing the forward succ edge", fn.Name.Name, b.Index, p.Index)
					}
				}
			}
			rpo := g.ReversePostorder()
			if len(rpo) == 0 || rpo[0] != g.Entry {
				t.Errorf("%s: reverse postorder does not start at entry", fn.Name.Name)
			}
			seen := map[int]bool{}
			for _, b := range rpo {
				if seen[b.Index] {
					t.Errorf("%s: block b%d appears twice in reverse postorder", fn.Name.Name, b.Index)
				}
				seen[b.Index] = true
			}
		}
	}
}

func contains(bs []*dataflow.Block, b *dataflow.Block) bool {
	for _, x := range bs {
		if x == b {
			return true
		}
	}
	return false
}

// parseFunc parses one function body from source for solver tests
// that need no type information.
func parseFunc(t *testing.T, src string) (*token.FileSet, *ast.FuncDecl) {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "test.go", "package p\n"+src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	for _, d := range file.Decls {
		if fn, ok := d.(*ast.FuncDecl); ok {
			return fset, fn
		}
	}
	t.Fatalf("no function in %q", src)
	return nil, nil
}

// isCall matches a call whose rendered callee ends in name.
func isCall(name string) func(ast.Node) bool {
	return func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return false
		}
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			return fun.Name == name
		case *ast.SelectorExpr:
			return fun.Sel.Name == name
		}
		return false
	}
}

// findStmt returns the first statement for which f reports true.
func findStmt(body *ast.BlockStmt, f func(ast.Stmt) bool) ast.Stmt {
	var out ast.Stmt
	ast.Inspect(body, func(n ast.Node) bool {
		if out != nil {
			return false
		}
		if s, ok := n.(ast.Stmt); ok && f(s) {
			out = s
			return false
		}
		return true
	})
	return out
}

func TestMustReachExit(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want bool // every path from the open() stmt hits close()
	}{
		{"straight", `func f() { h := open(); use(h); h.close() }`, true},
		{"deferred", `func f() { h := open(); defer h.close(); use(h) }`, true},
		{"early return misses", `func f(a int) { h := open(); if a > 0 { return }; h.close() }`, false},
		{"both branches close", `func f(a int) { h := open(); if a > 0 { h.close() } else { h.close() } }`, true},
		{"one branch misses", `func f(a int) { h := open(); if a > 0 { h.close() } }`, false},
		{"loop may skip", `func f(n int) { h := open(); for i := 0; i < n; i++ { h.close() } }`, false},
		{"close after loop", `func f(n int) { h := open(); for i := 0; i < n; i++ { work() }; h.close() }`, true},
		{"panic path is vacuous", `func f(a int) { h := open(); if a > 0 { panic("x") }; h.close() }`, true},
		{"funclit does not count", `func f() { h := open(); g := func() { h.close() }; _ = g }`, false},
		{"switch all cases", `func f(a int) { h := open(); switch a { case 0: h.close(); default: h.close() } }`, true},
		{"switch missing default", `func f(a int) { h := open(); switch a { case 0: h.close() } }`, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, fn := parseFunc(t, tc.src)
			g := dataflow.New(fn.Body)
			open := findStmt(fn.Body, func(s ast.Stmt) bool {
				as, ok := s.(*ast.AssignStmt)
				return ok && dataflow.Scan(as, isCall("open"))
			})
			if open == nil {
				t.Fatal("no open() statement found")
			}
			if got := g.MustReachExit(open, isCall("close")); got != tc.want {
				t.Errorf("MustReachExit = %v, want %v", got, tc.want)
			}
		})
	}
}

// TestReachingDefs checks the solver on the typed fixture: inside
// rangeLoop's body, the use of s must see both the initial definition
// and the loop's own redefinition; after forLoop's loop, the use in
// the return must see both as well.
func TestReachingDefs(t *testing.T) {
	pkgs, err := load.Fixture("testdata", "cfgtest")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	pkg := pkgs[0]
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Name.Name != "forLoop" {
				continue
			}
			g := dataflow.New(fn.Body)
			defs := dataflow.SolveReachingDefs(g, pkg.TypesInfo, fn.Type, fn.Recv, fn.Body)

			// The `return s` use: both `s := 0` and `s += i` reach it.
			ret := findStmt(fn.Body, func(s ast.Stmt) bool { _, ok := s.(*ast.ReturnStmt); return ok }).(*ast.ReturnStmt)
			use := ret.Results[0].(*ast.Ident)
			got := defs.Reaching(use)
			if len(got) != 2 {
				t.Fatalf("defs reaching `return s`: got %d, want 2 (s := 0 and s += i)", len(got))
			}

			// The parameter n's use in the loop condition reaches back
			// to the function entry (a nil-node def).
			var nUse *ast.Ident
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && id.Name == "n" && nUse == nil {
					nUse = id
				}
				return nUse == nil
			})
			nDefs := defs.Reaching(nUse)
			if len(nDefs) != 1 || nDefs[0].Node != nil {
				t.Fatalf("defs reaching use of parameter n: got %+v, want one entry def", nDefs)
			}
		}
	}
}
