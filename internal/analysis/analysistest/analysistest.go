// Package analysistest runs a lint.Analyzer over a golden fixture tree
// and checks its findings against expectations written in the fixtures
// themselves, mirroring x/tools' analysistest convention:
//
//	bad := a == b // want `float64 equality`
//
// Each back-quoted or double-quoted string after "want" is a regular
// expression that must match a finding reported on that line; findings
// with no matching expectation, and expectations with no matching
// finding, both fail the test.
//
// A fixture file may instead declare itself a negative case with a
// file-level directive comment
//
//	// want:none
//
// asserting the analyzer reports nothing anywhere in that file. The
// directive makes the absence an explicit, reviewable expectation —
// a clean file with no want comments passes silently, but a want:none
// file that starts reporting (or that also carries want comments,
// which would contradict it) fails loudly.
package analysistest

import (
	"regexp"
	"strconv"
	"strings"
	"testing"

	"tradeoff/internal/analysis/lint"
	"tradeoff/internal/analysis/load"
)

var wantRE = regexp.MustCompile("// want ((?:(?:\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`)\\s*)+)$")
var wantArgRE = regexp.MustCompile("\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`")

// expectation is one "want" pattern at a file line.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

// Run loads the fixture packages from root/src as one program and
// applies the analyzer, comparing findings to the // want comments. A
// per-package analyzer sees each path on its own; a program-level one
// sees all of them together.
//
//lint:ignore unusedexport test harness: the analyzer tests run their fixtures through it
func Run(t *testing.T, root string, a *lint.Analyzer, paths ...string) {
	t.Helper()
	pkgs, err := load.Fixture(root, paths...)
	if err != nil {
		t.Fatalf("loading fixtures %v: %v", paths, err)
	}
	analyzers := []*lint.Analyzer{a}
	targets := make([]lint.Target, len(pkgs))
	var findings []lint.Finding
	for i, pkg := range pkgs {
		targets[i] = pkg
		got, err := lint.Run(pkg, analyzers)
		if err != nil {
			t.Fatalf("running %s on %s: %v", a.Name, pkg.ImportPath, err)
		}
		findings = append(findings, got...)
	}
	got, err := lint.RunProgram(targets, analyzers)
	if err != nil {
		t.Fatalf("running %s on %v: %v", a.Name, paths, err)
	}
	findings = append(findings, got...)

	var expectations []*expectation
	negatives := map[string]bool{}
	for _, pkg := range pkgs {
		collectWants(t, pkg, &expectations, negatives)
	}
	for _, f := range findings {
		if negatives[f.Pos.Filename] {
			t.Errorf("%s declares `// want:none` but got finding: %s", f.Pos.Filename, f)
			continue
		}
		if !claim(expectations, f) {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for _, e := range expectations {
		if !e.hit {
			t.Errorf("%s:%d: expected finding matching %q, got none", e.file, e.line, e.re)
		}
	}
}

// claim marks the first unmatched expectation on the finding's line
// whose pattern matches, and reports whether one was found.
func claim(exps []*expectation, f lint.Finding) bool {
	for _, e := range exps {
		if !e.hit && e.file == f.Pos.Filename && e.line == f.Pos.Line && e.re.MatchString(f.Message) {
			e.hit = true
			return true
		}
	}
	return false
}

// collectWants appends pkg's // want expectations to exps and records
// its // want:none files in negatives.
func collectWants(t *testing.T, pkg *load.Package, exps *[]*expectation, negatives map[string]bool) {
	t.Helper()
	fset := pkg.Fset
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				if strings.TrimSpace(c.Text) == "// want:none" {
					negatives[fset.Position(c.Pos()).Filename] = true
					continue
				}
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, arg := range wantArgRE.FindAllString(m[1], -1) {
					pattern := arg
					if strings.HasPrefix(arg, "`") {
						pattern = strings.Trim(arg, "`")
					} else {
						var err error
						pattern, err = strconv.Unquote(arg)
						if err != nil {
							t.Fatalf("%s:%d: bad want pattern %s: %v", pos.Filename, pos.Line, arg, err)
						}
					}
					re, err := regexp.Compile(pattern)
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, pattern, err)
					}
					*exps = append(*exps, &expectation{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	for _, e := range *exps {
		if negatives[e.file] {
			t.Fatalf("%s: file declares `// want:none` but also carries a // want expectation at line %d", e.file, e.line)
		}
	}
}
