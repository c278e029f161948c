// Package stagecount protects the observability contract of the staged
// rejection ladder: every search answer (search.Answer) carries a
// StageCounts tally saying which bound stage rejected each candidate, and
// callers are expected to merge those counters upward (search.Stats.Add in
// the shard and cluster merges) so operators can see where pruning
// happens. Discarding a StageCounts — with a blank identifier or by
// dropping a call's results on the floor — silently zeroes a shard's
// contribution to the global tally, which is how dashboards end up lying.
// Deliberate discards (benchmarks, tests pinning unrelated behaviour) carry
// a //ced:stagecount-ok marker.
package stagecount

import (
	"go/ast"
	"go/types"

	"ced/internal/analysis"
)

// Analyzer is the stagecount pass.
var Analyzer = &analysis.Analyzer{
	Name: "stagecount",
	Doc: "StageCounts carried by search answers must be merged into the " +
		"caller's tally, not discarded with _ or an expression statement; " +
		"results that hold a StageCounts in a nested field (search.Answer) " +
		"count too (//ced:stagecount-ok waives a deliberate discard)",
	Run: run,
}

// isStageCounts reports whether t (possibly via the metric.StageCounts
// alias) is the StageCounts counter struct.
func isStageCounts(t types.Type) bool {
	named := analysis.NamedOf(t)
	return named != nil && named.Obj().Name() == "StageCounts"
}

// carriesStageCounts reports whether t is, or transitively contains, a
// StageCounts: a search.Answer embeds its Stats, whose Rejections field is
// the tally, so dropping a Query call on the floor loses the counters just
// as surely as dropping a bare StageCounts. Only bare expression statements
// use the transitive rule — blank assigns keep the strict bare-StageCounts
// check, because `hits, _, err :=` on a merged query legitimately drops
// stats a caller never reports.
func carriesStageCounts(t types.Type) bool {
	return carries(t, make(map[types.Type]bool))
}

func carries(t types.Type, seen map[types.Type]bool) bool {
	if seen[t] {
		return false
	}
	seen[t] = true
	if isStageCounts(t) {
		return true
	}
	switch u := t.Underlying().(type) {
	case *types.Slice:
		return carries(u.Elem(), seen)
	case *types.Array:
		return carries(u.Elem(), seen)
	case *types.Pointer:
		return carries(u.Elem(), seen)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if carries(u.Field(i).Type(), seen) {
				return true
			}
		}
	}
	return false
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				checkAssign(pass, n)
			case *ast.ExprStmt:
				checkExprStmt(pass, n)
			}
			return true
		})
	}
	return nil
}

// checkAssign flags blank-identifier positions whose incoming value is a
// StageCounts.
func checkAssign(pass *analysis.Pass, as *ast.AssignStmt) {
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, lhs := range as.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok || id.Name != "_" {
			continue
		}
		if tv, ok := pass.TypesInfo.Types[as.Rhs[i]]; !ok || !isStageCounts(tv.Type) || pass.LineMarked(lhs.Pos(), "stagecount-ok") {
			continue
		}
		pass.Reportf(lhs.Pos(),
			"StageCounts discarded with _: merge the rejection tally into the caller's "+
				"counters (StageCounts.Merge / search.Stats.Add) so stage accounting stays honest")
	}
}

// checkExprStmt flags bare calls whose dropped results include a
// StageCounts.
func checkExprStmt(pass *analysis.Pass, st *ast.ExprStmt) {
	call, ok := ast.Unparen(st.X).(*ast.CallExpr)
	if !ok {
		return
	}
	tv, ok := pass.TypesInfo.Types[call]
	if !ok {
		return
	}
	drops := false
	switch t := tv.Type.(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if carriesStageCounts(t.At(i).Type()) {
				drops = true
			}
		}
	default:
		drops = carriesStageCounts(tv.Type)
	}
	if !drops || pass.LineMarked(call.Pos(), "stagecount-ok") {
		return
	}
	pass.Reportf(call.Pos(),
		"call result containing StageCounts dropped: merge the rejection tally into the "+
			"caller's counters (StageCounts.Merge / search.Stats.Add) so stage accounting stays honest")
}
