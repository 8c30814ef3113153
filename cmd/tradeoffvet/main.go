// Tradeoffvet is the repo's static-analysis multichecker: ten
// analyzers enforcing the paper's parameter domains, float-comparison
// discipline, context propagation, error handling, metric hygiene,
// span lifecycle, locking discipline, deterministic output order,
// hot-path allocation budgets and the absence of unused exports over
// every non-test package. Nine run package by package; unusedexport
// runs once over all loaded packages after them. It is
// self-contained — analyzers are built on the stdlib go/ast+go/types
// stack (internal/analysis/lint), the flow-sensitive ones on the CFG
// and solvers in internal/analysis/dataflow, with dependency types
// resolved from `go list -export` data, so no external modules are
// required.
//
// Usage:
//
//	tradeoffvet [-list] [-format text|json] [packages]
//
// Packages default to ./... resolved from the current directory.
// With -format text (the default) findings print as
// file:line:col: message (analyzer); with -format json each finding
// is one JSON object per line — {"analyzer","file","line","col",
// "message"} — for machine consumers such as CI annotators. The exit
// status is 1 when findings exist, 2 on a load or internal error.
// Suppress a finding with a `//lint:ignore <analyzer> <reason>`
// directive on or directly above its line.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"tradeoff/internal/analysis/lint"
	"tradeoff/internal/analysis/load"
	"tradeoff/internal/analysis/suite"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// jsonFinding is the -format json wire shape, one object per line.
type jsonFinding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("tradeoffvet", flag.ExitOnError)
	list := flags.Bool("list", false, "list the analyzers and exit")
	format := flags.String("format", "text", "output format: text or json")
	flags.Usage = func() {
		_, _ = fmt.Fprintf(stderr, "usage: tradeoffvet [-list] [-format text|json] [packages]\n\n")
		_, _ = fmt.Fprintf(stderr, "Runs the tradeoff static-analysis suite (default packages: ./...).\n")
		flags.PrintDefaults()
	}
	if err := flags.Parse(args); err != nil {
		return 2
	}
	if *format != "text" && *format != "json" {
		_, _ = fmt.Fprintf(stderr, "tradeoffvet: unknown format %q (want text or json)\n", *format)
		return 2
	}
	if *list {
		for _, a := range suite.Analyzers {
			_, _ = fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	patterns := flags.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := load.Load(".", patterns...)
	if err != nil {
		_, _ = fmt.Fprintln(stderr, err)
		return 2
	}

	enc := json.NewEncoder(stdout)
	exit := 0
	// emit prints findings and reports false when one cannot be encoded.
	emit := func(findings []lint.Finding) bool {
		for _, f := range findings {
			if *format == "json" {
				if err := enc.Encode(jsonFinding{
					Analyzer: f.Analyzer,
					File:     f.Pos.Filename,
					Line:     f.Pos.Line,
					Col:      f.Pos.Column,
					Message:  f.Message,
				}); err != nil {
					_, _ = fmt.Fprintf(stderr, "tradeoffvet: encoding finding: %v\n", err)
					return false
				}
			} else {
				_, _ = fmt.Fprintln(stdout, f)
			}
			if exit == 0 {
				exit = 1
			}
		}
		return true
	}
	targets := make([]lint.Target, len(pkgs))
	for i, pkg := range pkgs {
		targets[i] = pkg
		findings, err := lint.Run(pkg, suite.Analyzers)
		if err != nil {
			_, _ = fmt.Fprintf(stderr, "tradeoffvet: %s: %v\n", pkg.ImportPath, err)
			exit = 2
		}
		if !emit(findings) {
			return 2
		}
	}
	findings, err := lint.RunProgram(targets, suite.Analyzers)
	if err != nil {
		_, _ = fmt.Fprintf(stderr, "tradeoffvet: %v\n", err)
		exit = 2
	}
	if !emit(findings) {
		return 2
	}
	return exit
}
