// Package load type-checks Go packages for the lint analyzers using
// only the standard library and the go tool: `go list -export` supplies
// compiler export data for every dependency, so a package's own sources
// are the only thing parsed and type-checked from scratch. This keeps
// the analysis suite free of external module downloads (there is no
// vendored x/tools in this repo) while still giving analyzers full
// types.Info resolution.
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Package is one type-checked package under analysis.
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	TypesInfo  *types.Info
}

// The lint.Target view.

func (p *Package) ASTFiles() []*ast.File    { return p.Files }
func (p *Package) FileSet() *token.FileSet  { return p.Fset }
func (p *Package) TypesPkg() *types.Package { return p.Types }
func (p *Package) Info() *types.Info        { return p.TypesInfo }

// listedPackage is the subset of `go list -json` output the loader uses.
type listedPackage struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	CgoFiles   []string
	DepOnly    bool
	ImportMap  map[string]string
	Incomplete bool
	Error      *struct{ Err string }
}

const listFields = "-json=ImportPath,Dir,Export,GoFiles,CgoFiles,DepOnly,ImportMap,Incomplete,Error"

// goList runs `go list -e -export -deps` in dir over the patterns and
// returns the decoded package stream in dependency-first order.
func goList(dir string, patterns []string) ([]*listedPackage, error) {
	args := append([]string{"list", "-e", "-export", "-deps", listFields}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("load: go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	var pkgs []*listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		p := new(listedPackage)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("load: decoding go list output: %w", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// exportLookup builds the export-data resolver the gc importer uses.
// importMap folds every listed package's ImportMap together; the
// mappings (std-vendored paths, mostly) are globally consistent.
func exportLookup(exports, importMap map[string]string) func(string) (io.ReadCloser, error) {
	return func(path string) (io.ReadCloser, error) {
		if mapped, ok := importMap[path]; ok {
			path = mapped
		}
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("load: no export data for %q", path)
		}
		return os.Open(file)
	}
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
}

func sizes() types.Sizes {
	if s := types.SizesFor("gc", runtime.GOARCH); s != nil {
		return s
	}
	return types.SizesFor("gc", "amd64")
}

// Load type-checks the packages matching patterns (resolved relative to
// dir, e.g. "./...") and returns them in dependency-first order.
// Only non-test build-included sources are loaded, matching the
// analyzers' charter of checking production code.
func Load(dir string, patterns ...string) ([]*Package, error) {
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	exports := map[string]string{}
	importMap := map[string]string{}
	var targets []*listedPackage
	for _, p := range listed {
		if p.Error != nil && !p.DepOnly {
			return nil, fmt.Errorf("load: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		for from, to := range p.ImportMap {
			importMap[from] = to
		}
		if !p.DepOnly {
			targets = append(targets, p)
		}
	}

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", exportLookup(exports, importMap))
	var out []*Package
	for _, t := range targets {
		if len(t.CgoFiles) > 0 {
			return nil, fmt.Errorf("load: %s uses cgo, which the loader does not support", t.ImportPath)
		}
		if len(t.GoFiles) == 0 {
			continue
		}
		pkg, err := check(fset, imp, t.ImportPath, t.Dir, t.GoFiles)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

// check parses and type-checks one package's files.
func check(fset *token.FileSet, imp types.Importer, importPath, dir string, goFiles []string) (*Package, error) {
	var files []*ast.File
	for _, name := range goFiles {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("load: %w", err)
		}
		files = append(files, f)
	}
	info := newInfo()
	conf := types.Config{Importer: imp, Sizes: sizes()}
	tpkg, err := conf.Check(importPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("load: type-checking %s: %w", importPath, err)
	}
	return &Package{
		ImportPath: importPath,
		Dir:        dir,
		Fset:       fset,
		Files:      files,
		Types:      tpkg,
		TypesInfo:  info,
	}, nil
}

// Fixture loads testdata fixture packages GOPATH-style, returning one
// Package per path on one shared FileSet: the import path "p" resolves
// to root/src/p, fixture packages may import each other, and any other
// import resolves to the standard library via export data. This
// mirrors x/tools' analysistest layout so golden corpora look the way
// Go developers expect.
func Fixture(root string, paths ...string) ([]*Package, error) {
	f := &fixtureLoader{
		root:    root,
		fset:    token.NewFileSet(),
		pkgs:    map[string]*Package{},
		exports: map[string]string{},
		stdImp:  map[string]bool{},
	}
	// Gather the std imports reachable from the fixture tree so one
	// `go list -export` run covers them all.
	seen := map[string]bool{}
	for _, path := range paths {
		if err := f.scanStdImports(path, seen); err != nil {
			return nil, err
		}
	}
	if len(f.stdImp) > 0 {
		roots := make([]string, 0, len(f.stdImp))
		for p := range f.stdImp {
			roots = append(roots, p)
		}
		sort.Strings(roots) // stable go list argv, stable command cache
		listed, err := goList(root, roots)
		if err != nil {
			return nil, err
		}
		importMap := map[string]string{}
		for _, p := range listed {
			if p.Export != "" {
				f.exports[p.ImportPath] = p.Export
			}
			for from, to := range p.ImportMap {
				importMap[from] = to
			}
		}
		f.gc = importer.ForCompiler(f.fset, "gc", exportLookup(f.exports, importMap))
	}
	out := make([]*Package, len(paths))
	for i, path := range paths {
		pkg, err := f.load(path)
		if err != nil {
			return nil, err
		}
		out[i] = pkg
	}
	return out, nil
}

type fixtureLoader struct {
	root    string
	fset    *token.FileSet
	pkgs    map[string]*Package
	exports map[string]string
	stdImp  map[string]bool
	gc      types.Importer
}

func (f *fixtureLoader) dirFor(path string) string { return filepath.Join(f.root, "src", path) }

func (f *fixtureLoader) isFixture(path string) bool {
	st, err := os.Stat(f.dirFor(path))
	return err == nil && st.IsDir()
}

// scanStdImports walks the fixture import graph collecting non-fixture
// (standard library) import paths.
func (f *fixtureLoader) scanStdImports(path string, seen map[string]bool) error {
	if seen[path] {
		return nil
	}
	seen[path] = true
	files, err := f.goFilesIn(f.dirFor(path))
	if err != nil {
		return err
	}
	for _, name := range files {
		src, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.ImportsOnly)
		if err != nil {
			return fmt.Errorf("load: %w", err)
		}
		for _, imp := range src.Imports {
			p := strings.Trim(imp.Path.Value, `"`)
			if f.isFixture(p) {
				if err := f.scanStdImports(p, seen); err != nil {
					return err
				}
			} else {
				f.stdImp[p] = true
			}
		}
	}
	return nil
}

func (f *fixtureLoader) goFilesIn(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("load: %w", err)
	}
	var files []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
			files = append(files, filepath.Join(dir, e.Name()))
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("load: no Go files in %s", dir)
	}
	return files, nil
}

// Import resolves fixture-local packages from the tree and everything
// else through export data, making fixtureLoader a types.Importer.
func (f *fixtureLoader) Import(path string) (*types.Package, error) {
	if f.isFixture(path) {
		pkg, err := f.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	if f.gc == nil {
		return nil, fmt.Errorf("load: unexpected import %q in fixture", path)
	}
	return f.gc.Import(path)
}

func (f *fixtureLoader) load(path string) (*Package, error) {
	if pkg, ok := f.pkgs[path]; ok {
		return pkg, nil
	}
	dir := f.dirFor(path)
	names, err := f.goFilesIn(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range names {
		parsed, err := parser.ParseFile(f.fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("load: %w", err)
		}
		files = append(files, parsed)
	}
	info := newInfo()
	conf := types.Config{Importer: f, Sizes: sizes()}
	tpkg, err := conf.Check(path, f.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("load: type-checking fixture %s: %w", path, err)
	}
	pkg := &Package{ImportPath: path, Dir: dir, Fset: f.fset, Files: files, Types: tpkg, TypesInfo: info}
	f.pkgs[path] = pkg
	return pkg, nil
}
