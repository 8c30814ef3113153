// Package metricreg keeps the internal/obs metric surface coherent
// with the /metrics naming scheme. Two failure modes are
// machine-checked:
//
//  1. naming drift — every constant name passed to obs.NewHistogram,
//     obs.NewCounter or (*obs.History).Register must be lower
//     snake_case (`^[a-z][a-z0-9_]*$`); camelCase, dashes and dots
//     would fracture the Prometheus exposition and the metrics
//     history into inconsistent dialects, and
//  2. duplicate registration — registering the same constant
//     instrument name at two call sites in a package would fuse
//     unrelated Prometheus series into one, and Register silently
//     replaces an existing sampler (that is how RegisterHistogram
//     rebinds derived series), so a duplicated history name drops the
//     first series without any runtime signal. Instrument and history
//     names are separate namespaces.
//
// Computed names (the per-endpoint series internal/service derives
// from routes) are out of scope, like every non-constant name; a
// service test checks the rendered documents instead.
package metricreg

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"regexp"
	"strings"

	"tradeoff/internal/analysis/lint"
	"tradeoff/internal/analysis/typeutil"
)

// Analyzer is the metricreg check.
var Analyzer = &lint.Analyzer{
	Name: "metricreg",
	Doc:  "flags obs metric and history series names registered more than once or diverging from the snake_case /metrics naming scheme",
	Run:  run,
}

// obsRegisterFuncs are the internal/obs constructors that name an
// instrument; the name becomes a Prometheus series, so duplicate
// call-site registrations within a package fuse unrelated series.
var obsRegisterFuncs = map[string]bool{
	"NewHistogram": true,
	"NewCounter":   true,
}

// metricNameRE is the /metrics scheme: lower snake_case, starting
// with a letter.
var metricNameRE = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

// isObsPkg matches the instrument package by import-path suffix, so
// the analyzer works both on the real tradeoff/internal/obs and on the
// fixture stand-in package "obs" (the same convention typeutil's
// IsNamedSuffix uses for stand-in types).
func isObsPkg(path string) bool {
	return path == "obs" || strings.HasSuffix(path, "/obs")
}

func run(pass *lint.Pass) error {
	// Package-wide, file-order traversal keeps "first registration
	// wins, later ones are flagged" deterministic.
	seenObs := map[string]token.Pos{}
	seenHist := map[string]token.Pos{}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			fn := typeutil.Callee(pass.TypesInfo, call)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			pkgPath := fn.Pkg().Path()
			noRecv := fn.Type().(*types.Signature).Recv() == nil
			obsReg := isObsPkg(pkgPath) && noRecv && obsRegisterFuncs[fn.Name()]
			histReg := isObsPkg(pkgPath) && typeutil.IsNamedSuffix(recvType(fn), "obs", "History") && fn.Name() == "Register"
			if !obsReg && !histReg {
				return true
			}
			name, ok := constString(pass, call.Args[0])
			if !ok {
				return true
			}
			if !metricNameRE.MatchString(name) {
				pass.Reportf(call.Args[0].Pos(), "metric name %q is not snake_case; the /metrics scheme is ^[a-z][a-z0-9_]*$", name)
			}
			switch {
			case obsReg:
				if first, dup := seenObs[name]; dup {
					pass.Reportf(call.Args[0].Pos(), "obs metric %q registered more than once (first at %s); duplicate names fuse into one Prometheus series", name, pass.Fset.Position(first))
				} else {
					seenObs[name] = call.Args[0].Pos()
				}
			case histReg:
				if first, dup := seenHist[name]; dup {
					pass.Reportf(call.Args[0].Pos(), "history series %q registered more than once (first at %s); Register silently replaces the earlier sampler", name, pass.Fset.Position(first))
				} else {
					seenHist[name] = call.Args[0].Pos()
				}
			}
			return true
		})
	}
	return nil
}

func recvType(fn *types.Func) types.Type {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	return recv.Type()
}

func constString(pass *lint.Pass, e ast.Expr) (string, bool) {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}
