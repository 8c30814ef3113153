// Package unusedexport flags exported identifiers that no code in the
// program uses. An export of a package that no other module can import
// — one under an internal/ directory, or a package main — is API only
// for this program, so an export none of its non-test code references
// is dead: it costs reading, testing and, when it keeps state up to
// date, run time.
//
// The check sees the whole program at once. It covers package-level
// funcs, methods, types, vars and consts; struct fields are out of
// scope. A use is any reference from a loaded (non-test) file other
// than the declaration itself, so an export only tests call is
// flagged. A method also counts as used when an interface visible to
// the program — declared or written in a loaded package, or exported
// by any package they import — has a method of the same name and
// signature, since a call through that interface reaches it.
//
// Deliberate exports — a paper equation a test checks, an identifier
// only another module (such as the benchmark) calls, a method an
// interface the check cannot see requires — carry
//
//	//lint:ignore unusedexport <reason>
package unusedexport

import (
	"go/ast"
	"go/types"
	"strings"

	"tradeoff/internal/analysis/lint"
)

// Analyzer is the unusedexport check.
var Analyzer = &lint.Analyzer{
	Name:       "unusedexport",
	Doc:        "flags exported identifiers of internal and main packages that no non-test code in the program uses; delete them, unexport them, or give the reason they stay",
	RunProgram: run,
}

func run(pass *lint.ProgramPass) error {
	used := map[string]bool{}
	ifaces := map[string]bool{} // method name + signature key
	seen := map[*types.Package]bool{}
	for _, pkg := range pass.Packages {
		info := pkg.Info()
		for _, obj := range info.Uses {
			if k := key(obj); k != "" {
				used[k] = true
			}
		}
		for _, tv := range info.Types {
			addMethods(ifaces, tv.Type)
		}
		addScopes(ifaces, pkg.TypesPkg(), seen)
	}
	addMethods(ifaces, types.Universe.Lookup("error").Type())

	for _, pkg := range pass.Packages {
		if !private(pkg.TypesPkg()) {
			continue
		}
		info := pkg.Info()
		report := func(id *ast.Ident) {
			obj := info.Defs[id]
			if obj == nil || !id.IsExported() || used[key(obj)] {
				return
			}
			if fn, ok := obj.(*types.Func); ok && ifaces[methodKey(fn.Name(), fn.Type().(*types.Signature))] {
				return
			}
			pass.Reportf(id.Pos(), "exported %s %s has no non-test use", kind(obj), id.Name)
		}
		for _, file := range pkg.ASTFiles() {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					report(d.Name)
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							report(s.Name)
						case *ast.ValueSpec:
							for _, id := range s.Names {
								report(id)
							}
						}
					}
				}
			}
		}
	}
	return nil
}

// private reports whether no other module can import pkg.
func private(pkg *types.Package) bool {
	path := pkg.Path()
	return pkg.Name() == "main" || path == "internal" || strings.HasPrefix(path, "internal/") ||
		strings.Contains(path, "/internal/") || strings.HasSuffix(path, "/internal")
}

// key names a package-level object or method the same way whether its
// package was checked from source or imported from export data, since
// the two yield distinct types.Objects. It is "" for anything else.
func key(obj types.Object) string {
	pkg := obj.Pkg()
	if pkg == nil {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		fn = fn.Origin()
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if n, ok := t.(*types.Named); ok {
				return pkg.Path() + "." + n.Obj().Name() + "." + fn.Name()
			}
			return ""
		}
	}
	if obj.Parent() != pkg.Scope() {
		return "" // a field, a local or a type parameter
	}
	return pkg.Path() + "." + obj.Name()
}

// addScopes adds the methods of every interface type pkg and the
// packages it imports declare at package level.
func addScopes(ifaces map[string]bool, pkg *types.Package, seen map[*types.Package]bool) {
	if seen[pkg] {
		return
	}
	seen[pkg] = true
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
			addMethods(ifaces, tn.Type())
		}
	}
	for _, imp := range pkg.Imports() {
		addScopes(ifaces, imp, seen)
	}
}

// addMethods adds t's methods to ifaces when t is an interface.
func addMethods(ifaces map[string]bool, t types.Type) {
	if t == nil {
		return
	}
	it, ok := t.Underlying().(*types.Interface)
	if !ok {
		return
	}
	for i := 0; i < it.NumMethods(); i++ {
		m := it.Method(i)
		ifaces[methodKey(m.Name(), m.Type().(*types.Signature))] = true
	}
}

// methodKey renders a method's name and signature with package-path
// qualified types and no parameter names, so a method and an interface
// method compare equal across source-checked and imported packages.
func methodKey(name string, sig *types.Signature) string {
	qual := func(p *types.Package) string { return p.Path() }
	var b strings.Builder
	b.WriteString(name)
	tuple := func(t *types.Tuple, variadic bool) {
		b.WriteByte('(')
		for i := 0; i < t.Len(); i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			if variadic && i == t.Len()-1 {
				b.WriteString("...")
			}
			b.WriteString(types.TypeString(t.At(i).Type(), qual))
		}
		b.WriteByte(')')
	}
	tuple(sig.Params(), sig.Variadic())
	tuple(sig.Results(), false)
	return b.String()
}

// kind names obj's declaration keyword for the finding.
func kind(obj types.Object) string {
	switch o := obj.(type) {
	case *types.Func:
		if o.Type().(*types.Signature).Recv() != nil {
			return "method"
		}
		return "func"
	case *types.TypeName:
		return "type"
	case *types.Const:
		return "const"
	}
	return "var"
}
