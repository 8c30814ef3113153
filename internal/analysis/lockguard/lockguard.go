// Package lockguard cross-checks a package's locking discipline: a
// struct field that is accessed under a sync.Mutex/RWMutex in one
// function but bare in another is a data race `go test -race` only
// catches when the schedule cooperates — this analyzer catches it on
// every build. It also flags mixed atomic/direct access to the same
// field (atomic.AddInt64(&s.n, 1) in one place, s.n++ in another),
// which has the same probabilistic-detection problem.
//
// Lock state is computed flow-sensitively on the dataflow CFG as a
// must-analysis: a field access counts as guarded only when the
// mutex is held on every path reaching it. mu.Lock() acquires,
// mu.Unlock() releases, and a deferred Unlock holds the lock to the
// function's exit. Mutexes are identified by the source text of the
// expression they are locked through ("m.mu", "s.tracer.mu", or the
// struct itself for an embedded sync.Mutex), so a mutex guards the
// fields of whatever instance it hangs off.
//
// Helpers that run with the caller's lock held declare it with a
// directive in their doc comment:
//
//	//lockguard:held mu
//
// which seeds the receiver's named mutex as held at entry. This is
// the analyzer's epsilon versus the runtime race detector: the
// directive is trusted, not verified — DESIGN.md §5.3 discusses the
// tradeoff.
//
// Two access sites never count: composite-literal construction, and
// any access in a function that freshly constructs the instance
// (&T{...}, new(T)) — an object not yet published needs no lock.
package lockguard

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"tradeoff/internal/analysis/dataflow"
	"tradeoff/internal/analysis/lint"
	"tradeoff/internal/analysis/typeutil"
)

// Analyzer is the lockguard check.
var Analyzer = &lint.Analyzer{
	Name: "lockguard",
	Doc:  "flags struct fields accessed bare in one function but mutex-guarded (or atomically accessed) in another",
	Run:  run,
}

// access is one field touch: where, through which instance, and how.
type access struct {
	pos      token.Pos
	fn       *ast.FuncDecl // enclosing declared function (nil inside a FuncLit)
	baseText string
	guarded  bool
	atomic   bool
}

// fieldKey identifies a struct field across functions.
type fieldKey struct {
	obj *types.Var
}

func run(pass *lint.Pass) error {
	c := &collector{
		pass:     pass,
		accesses: map[fieldKey][]*access{},
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				c.fn = fn
				c.analyzeBody(fn.Body, directiveSeeds(pass, fn))
			}
		}
	}
	c.report()
	return nil
}

type collector struct {
	pass     *lint.Pass
	fn       *ast.FuncDecl
	accesses map[fieldKey][]*access
}

// directiveSeeds parses //lockguard:held directives from the doc
// comment: each named field is seeded held through the receiver.
func directiveSeeds(pass *lint.Pass, fn *ast.FuncDecl) map[string]bool {
	seeds := map[string]bool{}
	if fn.Doc == nil || fn.Recv == nil || len(fn.Recv.List) == 0 || len(fn.Recv.List[0].Names) == 0 {
		return seeds
	}
	recv := fn.Recv.List[0].Names[0].Name
	for _, c := range fn.Doc.List {
		rest, ok := strings.CutPrefix(c.Text, "//lockguard:held")
		if !ok {
			continue
		}
		for _, name := range strings.Fields(rest) {
			seeds[recv+"."+name] = true
		}
	}
	return seeds
}

// analyzeBody runs the lock-set analysis over one flow unit and
// recurses into function literals (each literal is its own unit with
// no inherited locks: it runs at call time, not where it appears).
func (c *collector) analyzeBody(body *ast.BlockStmt, seeds map[string]bool) {
	g := dataflow.New(body)

	// Fixpoint: in[b] = ∩ out(p) over computed predecessors.
	in := make([]map[string]bool, len(g.Blocks))
	rpo := g.ReversePostorder()
	in[g.Entry.Index] = cloneSet(seeds)
	for changed := true; changed; {
		changed = false
		for _, b := range rpo {
			if b != g.Entry {
				var meet map[string]bool
				for _, p := range b.Preds {
					if in[p.Index] == nil {
						continue
					}
					out := c.transferBlock(p, cloneSet(in[p.Index]))
					if meet == nil {
						meet = out
					} else {
						meet = intersect(meet, out)
					}
				}
				if meet == nil {
					continue // not yet reachable
				}
				if !sameSet(in[b.Index], meet) {
					in[b.Index] = meet
					changed = true
				}
			}
		}
	}

	// Final pass: record each field access with the held-set at its
	// node, then apply the node's lock transfers.
	for _, b := range g.Blocks {
		if in[b.Index] == nil {
			continue
		}
		held := cloneSet(in[b.Index])
		for _, n := range b.Nodes {
			c.recordAccesses(n, held)
			c.transferNode(n, held)
		}
	}

	// Function literals are separate flow units.
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			savedFn := c.fn
			c.fn = nil
			c.analyzeBody(lit.Body, map[string]bool{})
			c.fn = savedFn
			return false
		}
		return true
	})
}

// transferBlock applies every node's lock operations to set.
func (c *collector) transferBlock(b *dataflow.Block, set map[string]bool) map[string]bool {
	for _, n := range b.Nodes {
		c.transferNode(n, set)
	}
	return set
}

// transferNode applies Lock/Unlock calls inside one simple node.
// Deferred statements are skipped: a deferred Unlock releases at
// exit, so the lock stays held for the rest of the function.
func (c *collector) transferNode(n ast.Node, set map[string]bool) {
	if _, ok := n.(*ast.DeferStmt); ok {
		return
	}
	dataflow.Scan(n, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return false
		}
		name, target := c.mutexOp(call)
		switch name {
		case "Lock", "RLock":
			set[target] = true
		case "Unlock", "RUnlock":
			delete(set, target)
		}
		return false
	})
}

// mutexOp recognizes a sync.Mutex / sync.RWMutex method call and
// returns the method name and the mutex expression's source text
// ("m.mu", or "c" for an embedded mutex locked through the struct).
func (c *collector) mutexOp(call *ast.CallExpr) (string, string) {
	fn := typeutil.Callee(c.pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", ""
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return "", ""
	}
	rt := typeutil.Deref(recv.Type())
	named, ok := rt.(*types.Named)
	if !ok || (named.Obj().Name() != "Mutex" && named.Obj().Name() != "RWMutex") {
		return "", ""
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	return fn.Name(), exprText(sel.X)
}

func isMutex(t types.Type) bool {
	return typeutil.IsNamed(t, "sync", "Mutex") || typeutil.IsNamed(t, "sync", "RWMutex")
}

// recordAccesses collects guarded/bare/atomic field touches in one
// simple node, given the held-set at its entry.
func (c *collector) recordAccesses(n ast.Node, held map[string]bool) {
	// Selector expressions consumed by an atomic.* call are atomic
	// accesses, not bare ones.
	atomicSels := map[*ast.SelectorExpr]bool{}
	dataflow.Scan(n, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return false
		}
		fn := typeutil.Callee(c.pass.TypesInfo, call)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
			return false
		}
		for _, arg := range call.Args {
			if un, ok := ast.Unparen(arg).(*ast.UnaryExpr); ok && un.Op == token.AND {
				if sel, ok := ast.Unparen(un.X).(*ast.SelectorExpr); ok {
					atomicSels[sel] = true
				}
			}
		}
		return false
	})

	dataflow.Scan(n, func(m ast.Node) bool {
		sel, ok := m.(*ast.SelectorExpr)
		if !ok {
			return false
		}
		selection := c.pass.TypesInfo.Selections[sel]
		if selection == nil || selection.Kind() != types.FieldVal {
			return false
		}
		field, ok := selection.Obj().(*types.Var)
		if !ok || !field.IsField() || isMutex(field.Type()) {
			return false
		}
		// Only fields of this package's own structs: the discipline
		// being cross-checked is this package's.
		if field.Pkg() != c.pass.Pkg {
			return false
		}
		base := exprText(sel.X)
		c.accesses[fieldKey{obj: field}] = append(c.accesses[fieldKey{obj: field}], &access{
			pos:      sel.Pos(),
			fn:       c.fn,
			baseText: base,
			guarded:  heldFor(held, base),
			atomic:   atomicSels[sel],
		})
		return false
	})
}

// heldFor reports whether any held mutex guards the instance named by
// baseText: the mutex hangs directly off it ("m.mu" guards "m") or is
// it ("c" for an embedded mutex locked through the struct).
func heldFor(held map[string]bool, baseText string) bool {
	for h := range held {
		if h == baseText || strings.HasPrefix(h, baseText+".") {
			return true
		}
	}
	return false
}

// report cross-references the collected accesses per field. A bare
// access is flagged when the field is mutex-guarded in some other
// function AND guarded sites are not outnumbered by bare ones — the
// majority-discipline heuristic that keeps a field incidentally read
// under an unrelated lock once, but bare everywhere by design, quiet.
// Mixed atomic/direct access is flagged unconditionally: one atomic
// site is already a statement of intent.
func (c *collector) report() {
	// Deterministic field order for stable output.
	keys := make([]fieldKey, 0, len(c.accesses))
	for key := range c.accesses {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].obj.Pos() < keys[j].obj.Pos() })

	for _, key := range keys {
		list := c.accesses[key]
		var guardedTotal, atomicTotal int
		var candidates []*access
		for _, a := range list {
			switch {
			case a.guarded:
				guardedTotal++
			case a.atomic:
				atomicTotal++
			case c.constructs(a):
				// Freshly constructed, not yet published: exempt.
			default:
				candidates = append(candidates, a)
			}
		}
		if len(candidates) == 0 {
			continue
		}
		sort.Slice(candidates, func(i, j int) bool { return candidates[i].pos < candidates[j].pos })
		for _, a := range candidates {
			guardedElsewhere := 0
			for _, o := range list {
				if o.guarded && (o.fn != a.fn || a.fn == nil) {
					guardedElsewhere++
				}
			}
			switch {
			case guardedElsewhere > 0 && guardedTotal >= len(candidates):
				c.pass.Reportf(a.pos, "field %s is mutex-guarded at %d other site(s) but accessed here without holding the lock (add //lockguard:held <mutex> if the caller holds it)", key.obj.Name(), guardedElsewhere)
			case atomicTotal > 0:
				c.pass.Reportf(a.pos, "field %s is accessed atomically at %d other site(s) but directly here; mixed atomic/direct access races", key.obj.Name(), atomicTotal)
			}
		}
	}
}

// constructs reports whether the access's enclosing function freshly
// constructs its instance (the not-yet-published exemption).
func (c *collector) constructs(a *access) bool {
	if a.fn == nil || a.fn.Body == nil {
		return false
	}
	root, _, _ := strings.Cut(a.baseText, ".")
	fresh := false
	ast.Inspect(a.fn.Body, func(n ast.Node) bool {
		if fresh {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok || id.Name != root || i >= len(as.Rhs) && len(as.Rhs) != 1 {
				continue
			}
			rhs := as.Rhs[0]
			if len(as.Rhs) == len(as.Lhs) {
				rhs = as.Rhs[i]
			}
			switch r := ast.Unparen(rhs).(type) {
			case *ast.CompositeLit:
				fresh = true
			case *ast.UnaryExpr:
				if r.Op == token.AND {
					if _, ok := r.X.(*ast.CompositeLit); ok {
						fresh = true
					}
				}
			case *ast.CallExpr:
				if id, ok := r.Fun.(*ast.Ident); ok && id.Name == "new" {
					fresh = true
				}
			}
		}
		return !fresh
	})
	return fresh
}

// cloneSet copies a held-set.
func cloneSet(s map[string]bool) map[string]bool {
	out := make(map[string]bool, len(s))
	for k := range s {
		out[k] = true
	}
	return out
}

// intersect keeps only mutexes held in both sets (must-analysis meet).
func intersect(a, b map[string]bool) map[string]bool {
	out := map[string]bool{}
	for k := range a {
		if b[k] {
			out[k] = true
		}
	}
	return out
}

// sameSet reports whether a (possibly nil: not yet computed) equals b.
func sameSet(a, b map[string]bool) bool {
	if a == nil {
		return false
	}
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// exprText renders an expression as compact source text.
func exprText(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprText(e.X) + "." + e.Sel.Name
	case *ast.StarExpr:
		return exprText(e.X)
	case *ast.IndexExpr:
		return exprText(e.X) + "[...]"
	case *ast.CallExpr:
		return exprText(e.Fun) + "()"
	}
	return "?"
}
