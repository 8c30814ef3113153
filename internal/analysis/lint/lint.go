// Package lint is a self-contained, dependency-free analogue of
// golang.org/x/tools/go/analysis: an Analyzer inspects one type-checked
// package through a Pass and reports Diagnostics. It exists because the
// paper's correctness rests on invariants the compiler cannot see —
// parameter domains (α ∈ [0,1], βm ≥ 1, L ≥ D > 0), float-comparison
// discipline, context propagation in the service hot paths — and those
// must be machine-checked on every build, with no external module
// downloads required.
//
// Findings can be suppressed with a directive comment
//
//	//lint:ignore <analyzer>[,<analyzer>...] <reason>
//
// placed either on the flagged line or on the line directly above it.
// The reason is mandatory; a directive without one is reported as a
// diagnostic itself.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// An Analyzer describes one static check. Name must be a unique
// lowercase identifier (it is what //lint:ignore directives reference);
// Doc is a mandatory description whose first line summarizes the check.
// An analyzer sets exactly one of Run, which inspects one package at a
// time, and RunProgram, which inspects every loaded package at once.
type Analyzer struct {
	Name       string
	Doc        string
	Run        func(*Pass) error
	RunProgram func(*ProgramPass) error
}

// A Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// A Pass connects an Analyzer to the single package it inspects.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags []Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// TypeOf returns the type of e, or nil if unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.TypesInfo.TypeOf(e) }

// A ProgramPass connects a program-level Analyzer to every package the
// driver loaded, for checks no single package can decide.
type ProgramPass struct {
	Analyzer *Analyzer
	Packages []Target

	diags []Diagnostic
}

// Reportf records a finding at pos.
func (p *ProgramPass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Finding is a Diagnostic resolved to a position and its analyzer,
// ready for printing or comparison against test expectations.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Message, f.Analyzer)
}

// Target is the minimal view of a loaded package the runner needs;
// load.Package satisfies it.
type Target interface {
	ASTFiles() []*ast.File
	FileSet() *token.FileSet
	TypesPkg() *types.Package
	Info() *types.Info
}

// Run applies every per-package analyzer to the package and returns
// the surviving findings sorted by position, with //lint:ignore
// directives applied. Analyzer errors are returned after all analyzers
// have run.
func Run(pkg Target, analyzers []*Analyzer) ([]Finding, error) {
	ignores, bad := parseIgnores(pkg.FileSet(), pkg.ASTFiles())
	findings := bad
	var firstErr error
	for _, a := range analyzers {
		if a.Run == nil {
			continue
		}
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.FileSet(),
			Files:     pkg.ASTFiles(),
			Pkg:       pkg.TypesPkg(),
			TypesInfo: pkg.Info(),
		}
		if err := a.Run(pass); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("%s: %w", a.Name, err)
		}
		findings = ignores.keep(findings, a.Name, pkg.FileSet(), pass.diags)
	}
	sortFindings(findings)
	return findings, firstErr
}

// RunProgram applies every program-level analyzer once to all of pkgs,
// which must share one FileSet (load.Load's do), and returns the
// surviving findings like Run. Run already reports malformed
// directives, so RunProgram does not report them again.
func RunProgram(pkgs []Target, analyzers []*Analyzer) ([]Finding, error) {
	if len(pkgs) == 0 {
		return nil, nil
	}
	fset := pkgs[0].FileSet()
	var files []*ast.File
	for _, pkg := range pkgs {
		files = append(files, pkg.ASTFiles()...)
	}
	ignores, _ := parseIgnores(fset, files)
	var findings []Finding
	var firstErr error
	for _, a := range analyzers {
		if a.RunProgram == nil {
			continue
		}
		pass := &ProgramPass{Analyzer: a, Packages: pkgs}
		if err := a.RunProgram(pass); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("%s: %w", a.Name, err)
		}
		findings = ignores.keep(findings, a.Name, fset, pass.diags)
	}
	sortFindings(findings)
	return findings, firstErr
}

// keep appends to findings each of analyzer's diagnostics that no
// directive suppresses.
func (s ignoreSet) keep(findings []Finding, analyzer string, fset *token.FileSet, diags []Diagnostic) []Finding {
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		if !s.match(analyzer, pos) {
			findings = append(findings, Finding{Analyzer: analyzer, Pos: pos, Message: d.Message})
		}
	}
	return findings
}

func sortFindings(findings []Finding) {
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// ignoreSet records, per file, the lines each analyzer is suppressed on.
type ignoreSet map[string]map[int]map[string]bool // filename → line → analyzer set

func (s ignoreSet) match(analyzer string, pos token.Position) bool {
	lines := s[pos.Filename]
	if lines == nil {
		return false
	}
	set := lines[pos.Line]
	return set != nil && (set[analyzer] || set["*"])
}

var ignoreRE = regexp.MustCompile(`^//lint:ignore\s+(\S+)(?:\s+(.*))?$`)

// parseIgnores scans comments for //lint:ignore directives. A directive
// suppresses the named analyzers on its own line and on the following
// line, so both trailing and preceding placements work. Directives with
// no reason are themselves reported.
func parseIgnores(fset *token.FileSet, files []*ast.File) (ignoreSet, []Finding) {
	set := ignoreSet{}
	var bad []Finding
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := ignoreRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				if strings.TrimSpace(m[2]) == "" {
					bad = append(bad, Finding{
						Analyzer: "lint",
						Pos:      pos,
						Message:  "//lint:ignore directive is missing a reason",
					})
					continue
				}
				lines := set[pos.Filename]
				if lines == nil {
					lines = map[int]map[string]bool{}
					set[pos.Filename] = lines
				}
				for _, line := range []int{pos.Line, pos.Line + 1} {
					if lines[line] == nil {
						lines[line] = map[string]bool{}
					}
					for _, name := range strings.Split(m[1], ",") {
						lines[line][name] = true
					}
				}
			}
		}
	}
	return set, bad
}
