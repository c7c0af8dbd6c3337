package lint

// tracezero protects the zero-allocation-when-off invariant of the
// trace package: a nil *trace.Span is the disabled tracer, and every
// Span method is nil-safe — but Go evaluates arguments before the call,
// so `sp.SetStr("arm", fmt.Sprintf("arm[%d]", i))` allocates and
// formats even when sp is nil and the call itself is a no-op. On the
// hot path (per-arm, per-binding) that turns "tracing off" into a
// steady allocation tax.
//
// The analyzer flags method calls on a possibly-nil *Span whose
// arguments allocate — a fmt.Sprint/Sprintf/Sprintln call or a
// non-constant string concatenation — unless the receiver is proven
// non-nil at the call by a must-dataflow over the function's CFG. It
// follows the value through a local too: `name := fmt.Sprintf(…)`
// whose every use is an argument of a *Span method is flagged at the
// assignment unless each such receiver is proven non-nil there. The
// proof facts come from branch conditions: the true edge of `sp != nil`
// (and the false edge of `sp == nil`, covering the early-return guard
// idiom) generate "sp is non-nil", and any assignment to the receiver
// path (or a prefix of it) kills the fact. Compound conditions
// (`sp != nil && verbose`) conservatively prove nothing.

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

var TraceZero = &Analyzer{
	Name: "tracezero",
	Doc: "report allocating arguments (fmt.Sprintf, string concat) to methods on a " +
		"possibly-nil *trace.Span; guard with a nil check to keep disabled tracing zero-alloc",
	Run: runTraceZero,
}

func runTraceZero(pass *Pass) {
	for _, fb := range funcBodies(pass.Pkg) {
		checkFuncTrace(pass, fb.body)
	}
}

// spanReceiver returns the receiver expression of a method call on a
// *Span from a package named "trace", or nil.
func spanReceiver(info *types.Info, call *ast.CallExpr) ast.Expr {
	recv, _, ok := methodCall(call)
	if !ok {
		return nil
	}
	tv, ok := info.Types[recv]
	if !ok {
		return nil
	}
	if _, isPtr := tv.Type.Underlying().(*types.Pointer); !isPtr {
		return nil // value receivers cannot be nil
	}
	if !namedIn(tv.Type, "trace", "Span") {
		return nil
	}
	return recv
}

// allocatingArg returns a short description of the first allocating
// sub-expression of the argument list: a fmt.Sprint* call or a
// non-constant string concatenation. Constant-folded concats ("a"+"b")
// are free and exempt.
func allocatingArg(info *types.Info, call *ast.CallExpr) string {
	for _, arg := range call.Args {
		if desc := allocatingExpr(info, arg); desc != "" {
			return desc
		}
	}
	return ""
}

// allocatingExpr is allocatingArg for one expression.
func allocatingExpr(info *types.Info, e ast.Expr) string {
	desc := ""
	inspectShallow(e, func(n ast.Node) bool {
		if desc != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if name := funcFullName(info, n); strings.HasPrefix(name, "fmt.Sprint") {
				desc = name
				return false
			}
		case *ast.BinaryExpr:
			if n.Op != token.ADD {
				return true
			}
			tv, ok := info.Types[n]
			if !ok {
				return true
			}
			if b, isBasic := tv.Type.Underlying().(*types.Basic); !isBasic || b.Info()&types.IsString == 0 {
				return true
			}
			if tv.Value == nil { // not constant-folded
				desc = "string concatenation"
				return false
			}
		}
		return true
	})
	return desc
}

// spanOnlyLocal returns, for a local variable, the receivers of the
// *Span method calls that take it as an argument, in source order; ok
// reports that every use of it in body is such an argument, and that
// there is one.
func spanOnlyLocal(info *types.Info, body *ast.BlockStmt, obj types.Object) (recvs []ast.Expr, ok bool) {
	uses := 0
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if recv := spanReceiver(info, n); recv != nil {
				for _, arg := range n.Args {
					if id, isID := ast.Unparen(arg).(*ast.Ident); isID && info.Uses[id] == obj {
						recvs = append(recvs, recv)
					}
				}
			}
		case *ast.Ident:
			if info.Uses[n] == obj {
				uses++
			}
		}
		return true
	})
	return recvs, uses > 0 && uses == len(recvs)
}

func checkFuncTrace(pass *Pass, body *ast.BlockStmt) {
	info := pass.TypesInfo()

	// Find the flagged candidate calls first; most functions have none
	// and skip the dataflow entirely.
	// A candidate is an allocating expression (site) that must run only
	// where every receiver in recvs is proven non-nil: a span method's
	// argument, or the value of a local only span methods use.
	type candidate struct {
		site  ast.Node
		recvs []ast.Expr
		keys  []string
		what  string // the allocating expression, as reported
		guard string // what the report says to guard
	}
	var cands []candidate
	add := func(site ast.Node, recvs []ast.Expr, what, guard string) {
		c := candidate{site: site, recvs: recvs, what: what, guard: guard}
		for _, recv := range recvs {
			c.keys = append(c.keys, pathKey(info, recv))
		}
		cands = append(cands, c)
	}
	inspectShallow(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if recv := spanReceiver(info, n); recv != nil {
				if what := allocatingArg(info, n); what != "" {
					add(n, []ast.Expr{recv}, what+" argument", "the call")
				}
			}
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE || len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, lhs := range n.Lhs {
				id, isID := lhs.(*ast.Ident)
				if !isID || info.Defs[id] == nil {
					continue
				}
				what := allocatingExpr(info, n.Rhs[i])
				if what == "" {
					continue
				}
				if recvs, only := spanOnlyLocal(info, body, info.Defs[id]); only {
					add(n.Rhs[i], recvs, what+" assigned to "+id.Name+", which only feeds span methods,", "the assignment")
				}
			}
		}
		return true
	})
	if len(cands) == 0 {
		return
	}

	// Must-dataflow: fact i = "path nonNilKeys[i] is non-nil here".
	var nonNilKeys []string
	keyID := make(map[string]int)
	intern := func(key string) int {
		if id, ok := keyID[key]; ok {
			return id
		}
		id := len(nonNilKeys)
		keyID[key] = id
		nonNilKeys = append(nonNilKeys, key)
		return id
	}
	for _, c := range cands {
		for _, key := range c.keys {
			if key != "" {
				intern(key)
			}
		}
	}
	// Pre-intern guard paths from every nil-comparison condition so the
	// edge filter never mutates the tables.
	ast.Inspect(body, func(n ast.Node) bool {
		if path, _, ok := nilCheck(info, n); ok && path != "" {
			intern(path)
		}
		return true
	})

	transfer := func(n ast.Node, fs *FactSet) {
		inspectShallow(n, func(m ast.Node) bool {
			as, ok := m.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for _, lhs := range as.Lhs {
				w := pathKey(info, lhs)
				if w == "" {
					continue
				}
				for id, key := range nonNilKeys {
					if pathInvalidates(w, key) {
						fs.Remove(id)
					}
				}
			}
			return true
		})
	}
	edgeFilter := func(e Edge, fs *FactSet) {
		if e.Cond == nil {
			return
		}
		for _, path := range provenNonNil(info, e.Cond, e.Negated) {
			if id, known := keyID[path]; known {
				fs.Add(id)
			}
		}
	}

	g := pass.CFG(body)
	flow := solve(g, &Problem{Join: JoinIntersect, Transfer: transfer, EdgeFilter: edgeFilter})

	// nonNil reports whether every key is proven non-nil in before.
	nonNil := func(keys []string, before *FactSet) bool {
		for _, key := range keys {
			id, known := keyID[key]
			if key == "" || !known || !before.Has(id) {
				return false
			}
		}
		return true
	}
	proven := make(map[ast.Node]bool)
	flow.Walk(func(n ast.Node, before *FactSet) {
		inspectShallow(n, func(m ast.Node) bool {
			for _, c := range cands {
				if c.site == m && nonNil(c.keys, before) {
					proven[m] = true
				}
			}
			return true
		})
	})

	for _, c := range cands {
		if proven[c.site] {
			continue
		}
		recvText := pathText(c.recvs[0])
		if recvText == "" {
			recvText = "the span"
		}
		pass.Reportf(c.site.Pos(), "%s is evaluated even when %s is nil; guard %s with a nil check to keep disabled tracing allocation-free",
			c.what, recvText, c.guard)
	}
}

// provenNonNil returns the paths that cond proves non-nil on the edge
// taken when it is true (negated=false) or false (negated=true): `p !=
// nil` proves p on the true edge and `p == nil` on the false one, and a
// compound condition passes on what every operand must satisfy — both
// operands of an `&&` hold on its true edge, both of an `||` fail on its
// false edge — so `p == nil || cond` guards a return and `p != nil &&
// cond` guards a block.
func provenNonNil(info *types.Info, cond ast.Expr, negated bool) []string {
	switch c := cond.(type) {
	case *ast.ParenExpr:
		return provenNonNil(info, c.X, negated)
	case *ast.BinaryExpr:
		if (c.Op == token.LAND && !negated) || (c.Op == token.LOR && negated) {
			return append(provenNonNil(info, c.X, negated), provenNonNil(info, c.Y, negated)...)
		}
	}
	if path, eq, ok := nilCheck(info, cond); ok && path != "" && eq == negated {
		return []string{path}
	}
	return nil
}

// nilCheck decomposes a `<path> == nil` / `nil == <path>` (eq=true) or
// `<path> != nil` (eq=false) comparison; ok is false for anything else.
func nilCheck(info *types.Info, n ast.Node) (path string, eq bool, ok bool) {
	be, isBin := n.(*ast.BinaryExpr)
	if !isBin || (be.Op != token.EQL && be.Op != token.NEQ) {
		return "", false, false
	}
	operand := ast.Expr(nil)
	if isNilIdent(info, be.Y) {
		operand = be.X
	} else if isNilIdent(info, be.X) {
		operand = be.Y
	} else {
		return "", false, false
	}
	return pathKey(info, operand), be.Op == token.EQL, true
}

// isNilIdent reports whether the expression is the predeclared nil.
func isNilIdent(info *types.Info, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	_, isNil := info.Uses[id].(*types.Nil)
	return isNil
}
