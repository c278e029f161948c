// Package analysis is a small, dependency-free re-implementation of the
// golang.org/x/tools/go/analysis vocabulary: an Analyzer inspects one
// type-checked package through a Pass and reports Diagnostics. The repo's
// analyzers (cmd/cedvet) mechanically enforce the engine's concurrency and
// metric invariants — pooled-workspace release discipline, per-worker
// session confinement, atomic snapshot publication, hardened HTTP servers,
// honest stage counters and an unbroken cancellation chain — so a
// refactor that breaks one fails review instead of shipping a flake.
//
// The x/tools module is deliberately not used: this build environment is
// offline and the module has no dependencies, so the suite runs everywhere
// the Go toolchain does. The API mirrors x/tools closely enough that the
// analyzers could be ported mechanically if the dependency ever lands.
//
// # Annotation vocabulary
//
// Analyzers understand a small set of machine-readable comments; each names
// the invariant it waives or declares, so a grep for "//ced:" inventories
// every reviewed exception in the tree:
//
//	//ced:poolleak-ok   (func doc)  the function hands the pooled value's
//	                                ownership to its caller; release happens
//	                                elsewhere by documented contract.
//	//ced:frozen        (type doc)  the struct is immutable once published
//	                                behind an atomic pointer; field writes
//	                                are only legal in //ced:publish funcs.
//	//ced:publish       (func doc)  the function constructs or republishes
//	                                frozen states pre-publication and may
//	                                write their fields.
//	//ced:stagecount-ok (same line) StageCounts intentionally discarded.
//	//ced:rawhttp-ok    (same line) a deliberately raw HTTP server.
//	//ced:sessionshare-ok (same line) a reviewed cross-goroutine session
//	                                  handoff.
//	//ced:ctxflow-ok    (same line) a reviewed break in the cancellation
//	                                chain (a deliberately detached root in
//	                                a handler, or a bounded timer loop).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one static-analysis pass.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and -run filters.
	Name string
	// Doc is the one-paragraph description printed by cedvet -list: the
	// invariant enforced and the PR that introduced it.
	Doc string
	// Run inspects one package and reports findings through the Pass.
	Run func(*Pass) error
}

// A Diagnostic is one finding, positioned in the analyzed source.
type Diagnostic struct {
	Pos      token.Position
	Message  string
	Analyzer string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// A Pass connects an Analyzer to one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags *[]Diagnostic
	// lineMarks caches, per file, the //ced: markers found on each line.
	lineMarks map[*token.File]map[int][]string
}

// Reportf records one diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
		Analyzer: p.Analyzer.Name,
	})
}

// Marker is the comment prefix of the annotation vocabulary.
const Marker = "//ced:"

// HasMarker reports whether doc carries the given //ced: marker (for
// example HasMarker(fn.Doc, "poolleak-ok")). Explanatory text after the
// marker is encouraged and ignored.
func HasMarker(doc *ast.CommentGroup, marker string) bool {
	if doc == nil {
		return false
	}
	want := Marker + marker
	for _, c := range doc.List {
		text := strings.TrimSpace(c.Text)
		if text == want || strings.HasPrefix(text, want+" ") || strings.HasPrefix(text, want+":") {
			return true
		}
	}
	return false
}

// LineMarked reports whether any comment on pos's source line carries the
// given //ced: marker — the waiver form for single expressions, e.g.
// `ix.Query(ctx, q, req) //ced:stagecount-ok: ...`.
func (p *Pass) LineMarked(pos token.Pos, marker string) bool {
	tf := p.Fset.File(pos)
	if tf == nil {
		return false
	}
	if p.lineMarks == nil {
		p.lineMarks = make(map[*token.File]map[int][]string)
	}
	marks, ok := p.lineMarks[tf]
	if !ok {
		marks = make(map[int][]string)
		for _, f := range p.Files {
			if p.Fset.File(f.Pos()) != tf {
				continue
			}
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimSpace(c.Text)
					if !strings.HasPrefix(text, Marker) {
						continue
					}
					line := p.Fset.Position(c.Pos()).Line
					marks[line] = append(marks[line], strings.TrimPrefix(text, Marker))
				}
			}
		}
		p.lineMarks[tf] = marks
	}
	line := p.Fset.Position(pos).Line
	for _, m := range marks[line] {
		if m == marker || strings.HasPrefix(m, marker+" ") || strings.HasPrefix(m, marker+":") {
			return true
		}
	}
	return false
}

// RunAnalyzers applies every analyzer to every package and returns the
// findings sorted by position.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
				diags:     &diags,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, nil
}

// NamedOf unwraps pointers and aliases down to the named type of t, or nil.
func NamedOf(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	n, _ := t.(*types.Named)
	return n
}

// IsPkgType reports whether t (possibly behind pointers/aliases) is the
// named type pkgPath.name. The package is matched by full path or by path
// suffix, so fixtures can stand in for the real packages (a fixture package
// "metric" matches the real "ced/internal/metric").
func IsPkgType(t types.Type, pkgPath, name string) bool {
	n := NamedOf(t)
	if n == nil || n.Obj() == nil || n.Obj().Pkg() == nil {
		return false
	}
	if n.Obj().Name() != name {
		return false
	}
	p := n.Obj().Pkg().Path()
	return p == pkgPath || strings.HasSuffix(p, "/"+pkgPath)
}

// WalkStack traverses root in source order, calling fn with each node and
// the stack of its ancestors (outermost first, excluding n itself). If fn
// returns false the node's children are skipped.
func WalkStack(root ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if !fn(n, stack) {
			// Children are skipped and Inspect delivers no closing nil for
			// n, so n must not be pushed.
			return false
		}
		stack = append(stack, n)
		return true
	})
}

// CalleeName returns the bare identifier of a call's function: "f" for
// f(...), "m" for x.m(...), "" otherwise. Parens and type assertions around
// the callee are unwrapped.
func CalleeName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}
