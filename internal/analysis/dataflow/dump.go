package dataflow

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/printer"
	"go/token"
	"strings"
)

// Dump renders the graph as stable text for golden tests: one stanza
// per block in creation order, with each node's source text on its
// own line and the successor list at the end. Unreachable
// continuation blocks with no nodes and no edges are elided — they
// are construction artifacts, not structure.
//
//lint:ignore unusedexport test harness: TestCFGGolden renders the CFG golden with it
func (g *Graph) Dump(fset *token.FileSet) string {
	var sb strings.Builder
	for _, b := range g.Blocks {
		if b.Kind == "unreachable" && len(b.Nodes) == 0 && len(b.Preds) == 0 && len(b.Succs) == 0 {
			continue
		}
		fmt.Fprintf(&sb, "b%d %s\n", b.Index, b.Kind)
		for _, n := range b.Nodes {
			fmt.Fprintf(&sb, "\t%s\n", nodeText(fset, n))
		}
		if len(b.Succs) > 0 {
			ids := make([]string, len(b.Succs))
			for i, s := range b.Succs {
				ids[i] = fmt.Sprintf("b%d", s.Index)
			}
			fmt.Fprintf(&sb, "\t-> %s\n", strings.Join(ids, " "))
		}
	}
	if len(g.Defers) > 0 {
		sb.WriteString("defers\n")
		for _, d := range g.Defers {
			fmt.Fprintf(&sb, "\t%s\n", nodeText(fset, d))
		}
	}
	return sb.String()
}

// nodeText renders one node's source, collapsing internal whitespace
// so multi-line statements stay one dump line.
func nodeText(fset *token.FileSet, n ast.Node) string {
	var buf bytes.Buffer
	cfg := printer.Config{Mode: printer.RawFormat}
	if err := cfg.Fprint(&buf, fset, n); err != nil {
		return fmt.Sprintf("<%T>", n)
	}
	return strings.Join(strings.Fields(buf.String()), " ")
}
