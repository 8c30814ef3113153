package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tradeoff/internal/analysis/suite"
)

func TestListShowsAllAnalyzers(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("run(-list) = %d, want 0; stderr: %s", code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != len(suite.Analyzers) {
		t.Fatalf("-list printed %d lines, want %d:\n%s", len(lines), len(suite.Analyzers), out.String())
	}
	for i, a := range suite.Analyzers {
		if !strings.HasPrefix(lines[i], a.Name) {
			t.Errorf("-list line %d = %q, want analyzer %q", i, lines[i], a.Name)
		}
	}
}

func TestUnknownFormatRejected(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-format", "yaml"}, &out, &errb); code != 2 {
		t.Fatalf("run(-format yaml) = %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "unknown format") {
		t.Errorf("stderr = %q, want an unknown-format error", errb.String())
	}
}

// TestJSONFindings runs the real suite over a scratch module with one
// known defect and checks the -format json wire shape.
func TestJSONFindings(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, dir, "go.mod", "module scratch\n\ngo 1.22\n")
	writeFile(t, dir, "a.go", `package scratch

// Matches reports whether two model quantities agree.
func Matches(a, b float64) bool { return a == b }
`)
	chdir(t, dir)

	var out, errb bytes.Buffer
	code := run([]string{"-format", "json", "."}, &out, &errb)
	if code != 1 {
		t.Fatalf("run = %d, want 1 (findings); stderr: %s\nstdout: %s", code, errb.String(), out.String())
	}
	dec := json.NewDecoder(strings.NewReader(out.String()))
	n := 0
	for dec.More() {
		var f jsonFinding
		if err := dec.Decode(&f); err != nil {
			t.Fatalf("line %d: not one JSON object per line: %v\n%s", n, err, out.String())
		}
		n++
		if f.Analyzer == "" || f.File == "" || f.Line == 0 || f.Col == 0 || f.Message == "" {
			t.Errorf("finding %d has empty fields: %+v", n, f)
		}
		if f.Analyzer == "floatcmp" && !strings.HasSuffix(f.File, "a.go") {
			t.Errorf("floatcmp finding in %s, want a.go", f.File)
		}
	}
	if n == 0 {
		t.Fatalf("no findings decoded; stdout: %s", out.String())
	}
}

// TestJSONProgramFinding checks that a program-level finding — here an
// unused export of an internal package — carries the declaring file and
// position in -format json, the shape CI annotators read.
func TestJSONProgramFinding(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, dir, "go.mod", "module scratch\n\ngo 1.22\n")
	writeFile(t, dir, "internal/dead/dead.go", `package dead

// Unused has no caller.
func Unused() {}
`)
	chdir(t, dir)

	var out, errb bytes.Buffer
	if code := run([]string{"-format", "json", "./..."}, &out, &errb); code != 1 {
		t.Fatalf("run = %d, want 1 (findings); stderr: %s\nstdout: %s", code, errb.String(), out.String())
	}
	var f jsonFinding
	if err := json.Unmarshal(out.Bytes(), &f); err != nil {
		t.Fatalf("want exactly one JSON finding: %v\n%s", err, out.String())
	}
	if f.Analyzer != "unusedexport" || !strings.HasSuffix(f.File, filepath.Join("internal", "dead", "dead.go")) ||
		f.Line != 4 || f.Col != 6 || !strings.Contains(f.Message, "Unused") {
		t.Errorf("finding %+v, want unusedexport on Unused at internal/dead/dead.go:4:6", f)
	}
}

func writeFile(t *testing.T, dir, name, content string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(filepath.Join(dir, name)), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func chdir(t *testing.T, dir string) {
	t.Helper()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(old) })
}
