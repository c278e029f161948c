// Package boundconv enforces the wire encoding of pruning bounds used by
// the remote shard transport: JSON cannot carry IEEE infinities, so an
// unbounded (+Inf) pruning radius travels as a negative number and exists
// ONLY on the wire. Locally, bounds are always plain radii with +Inf
// meaning "none" — so a negative literal carried by a search request
// (search.KNN) or handed to a bounded evaluation
// (ComputeBounded, DistanceStaged, ...) is a smuggled wire value that would
// reject every candidate, and a wire struct's Bound field may be produced
// only by wireBound and consumed only by fromWireBound, never compared or
// computed with while still encoded.
package boundconv

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"

	"ced/internal/analysis"
)

// Analyzer is the boundconv pass.
var Analyzer = &analysis.Analyzer{
	Name: "boundconv",
	Doc: "negative pruning bounds mean +Inf only in the wire encoding: search " +
		"requests and bounded evaluations must receive math.Inf(1), and a wire request's Bound field " +
		"must be written via wireBound and read via fromWireBound only " +
		"(//ced:boundconv-ok waives a reviewed line)",
	Run: run,
}

// boundedCallees take the pruning bound/cutoff as their LAST argument: the
// search request constructors and the bounded evaluations.
var boundedCallees = map[string]bool{
	"KNN":                   true,
	"ComputeBounded":        true,
	"ComputeBoundedStaged":  true,
	"DistanceBounded":       true,
	"DistanceBoundedStaged": true,
	"DistanceStaged":        true,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			analysis.WalkStack(fn.Body, func(n ast.Node, stack []ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					checkNegativeLiteral(pass, n)
				case *ast.SelectorExpr:
					checkWireField(pass, n, stack)
				case *ast.CompositeLit:
					checkWireLiteral(pass, n)
				}
				return true
			})
		}
	}
	return nil
}

// checkNegativeLiteral flags a negative constant passed as the bound.
func checkNegativeLiteral(pass *analysis.Pass, call *ast.CallExpr) {
	if !boundedCallees[analysis.CalleeName(call)] || len(call.Args) == 0 || call.Ellipsis.IsValid() {
		return
	}
	arg := call.Args[len(call.Args)-1]
	tv, ok := pass.TypesInfo.Types[arg]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.Float && tv.Value.Kind() != constant.Int {
		return
	}
	if constant.Sign(tv.Value) >= 0 || pass.LineMarked(arg.Pos(), "boundconv-ok") {
		return
	}
	pass.Reportf(arg.Pos(),
		"negative bound %s passed to %s: negative means +Inf only in the wire encoding; "+
			"pass math.Inf(1) locally (decode wire bounds with fromWireBound first)",
		tv.Value, analysis.CalleeName(call))
}

// wireRequestField reports whether sel reads a field named Bound on a
// *Request wire struct.
func wireRequestField(pass *analysis.Pass, sel *ast.SelectorExpr) bool {
	if sel.Sel.Name != "Bound" {
		return false
	}
	s, ok := pass.TypesInfo.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return false
	}
	n := analysis.NamedOf(s.Recv())
	return n != nil && strings.HasSuffix(n.Obj().Name(), "Request")
}

// checkWireField validates every use of a wire request's Bound field:
// reads must flow straight into fromWireBound; writes must come straight
// from wireBound.
func checkWireField(pass *analysis.Pass, sel *ast.SelectorExpr, stack []ast.Node) {
	if !wireRequestField(pass, sel) || pass.LineMarked(sel.Pos(), "boundconv-ok") {
		return
	}
	if len(stack) == 0 {
		return
	}
	parent := stack[len(stack)-1]
	// Unwrap parens around the selector.
	for len(stack) > 1 {
		p, ok := parent.(*ast.ParenExpr)
		if !ok || p.X != sel {
			break
		}
		stack = stack[:len(stack)-1]
		parent = stack[len(stack)-1]
	}
	switch p := parent.(type) {
	case *ast.CallExpr:
		if analysis.CalleeName(p) == "fromWireBound" && len(p.Args) == 1 {
			return // the canonical decode
		}
	case *ast.AssignStmt:
		for i, lhs := range p.Lhs {
			if ast.Unparen(lhs) == sel {
				if i < len(p.Rhs) && len(p.Lhs) == len(p.Rhs) {
					if call, ok := ast.Unparen(p.Rhs[i]).(*ast.CallExpr); ok && analysis.CalleeName(call) == "wireBound" {
						return // the canonical encode
					}
				}
				pass.Reportf(sel.Pos(),
					"wire bound field %s.%s written without wireBound: encode with wireBound so +Inf "+
						"becomes the negative sentinel", exprString(sel.X), sel.Sel.Name)
				return
			}
		}
	}
	pass.Reportf(sel.Pos(),
		"wire bound field %s.%s used while still encoded (negative = +Inf): decode with "+
			"fromWireBound before comparing or computing with it", exprString(sel.X), sel.Sel.Name)
}

// checkWireLiteral validates Bound keys in wire request composite
// literals: the value must be a wireBound call.
func checkWireLiteral(pass *analysis.Pass, lit *ast.CompositeLit) {
	tv, ok := pass.TypesInfo.Types[lit]
	if !ok {
		return
	}
	n := analysis.NamedOf(tv.Type)
	if n == nil || !strings.HasSuffix(n.Obj().Name(), "Request") {
		return
	}
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok || key.Name != "Bound" || pass.LineMarked(kv.Pos(), "boundconv-ok") {
			continue
		}
		if call, ok := ast.Unparen(kv.Value).(*ast.CallExpr); ok && analysis.CalleeName(call) == "wireBound" {
			continue
		}
		pass.Reportf(kv.Pos(),
			"wire bound field %s.Bound set without wireBound: encode with wireBound so +Inf "+
				"becomes the negative sentinel", n.Obj().Name())
	}
}

func exprString(e ast.Expr) string {
	if id, ok := ast.Unparen(e).(*ast.Ident); ok {
		return id.Name
	}
	return "request"
}
