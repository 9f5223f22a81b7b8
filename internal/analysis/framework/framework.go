// Package framework is a small, dependency-free reimplementation of the
// golang.org/x/tools/go/analysis API surface that the nicwarp-vet suite
// needs. The container this repository builds in has no module proxy
// access, so x/tools cannot be vendored; the subset used here — Analyzer,
// Pass, Diagnostic, a package loader and an analysistest-style fixture
// runner — is rebuilt on the standard library (go/ast, go/parser, go/types,
// go/importer) with the same shapes, so analyzers written against it port
// to the real API mechanically if the dependency ever becomes available.
//
// The framework also implements the repo's `//nicwarp:` annotation grammar
// (see DESIGN.md "Determinism invariants"): an annotation is a line comment
// of the form
//
//	//nicwarp:<name> [rationale...]
//
// placed either on the same line as the construct it sanctions or on the
// line immediately above it. Pass.Annotated performs that lookup.
//
// The helpers more than one analyzer needs live here too: Callee resolves
// a call's static callee, StoreTarget an assignment target's field and
// root variable, IsPkgLevel and IsNamed classify objects and types.
package framework

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static check, mirroring analysis.Analyzer.
type Analyzer struct {
	// Name is the analyzer's identifier, used in diagnostics and -only.
	Name string
	// Doc is the analyzer's documentation, shown by `nicwarp-vet -list`.
	Doc string
	// Run applies the analyzer to one package under analysis, reporting
	// diagnostics.
	Run func(*Pass)
	// FactsRun, when non-nil, records the analyzer's facts about a
	// package's symbols in Pass.Facts, without diagnostics. The driver
	// applies it to every loaded package in dependency order, and before
	// Run on a package under analysis, so cross-package facts exist before
	// Run needs them.
	FactsRun func(*Pass)
}

// Diagnostic is one finding, mirroring analysis.Diagnostic.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Pass carries one (analyzer, package) unit of work, mirroring
// analysis.Pass.
type Pass struct {
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Report    func(Diagnostic)

	// Annots holds the package's parsed //nicwarp: annotations; Annotated
	// is the convenience lookup analyzers use.
	Annots *AnnotationSet
	// Facts is the run-wide fact store: facts recorded while visiting
	// dependency packages are visible here, and facts this pass records
	// become visible to later packages.
	Facts *FactSet
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Annotated reports whether the construct at pos carries a well-formed
// `//nicwarp:<name>` annotation: a line comment on the same source line or
// on the line immediately above. Malformed annotations (unknown verb,
// missing reason) never match — they are grammar errors reported by
// CheckAnnotations.
func (p *Pass) Annotated(pos token.Pos, name string) bool {
	return p.Annots.At(p.Fset, pos, name)
}

// newPass assembles a Pass over pkg sharing the run-wide fact store.
func newPass(pkg *Package, facts *FactSet, sink *[]Diagnostic) *Pass {
	return &Pass{
		Fset:      pkg.Fset,
		Files:     pkg.Files,
		Pkg:       pkg.Types,
		TypesInfo: pkg.Info,
		Annots:    CollectAnnotations(pkg.Fset, pkg.Files),
		Facts:     facts,
		Report:    func(d Diagnostic) { *sink = append(*sink, d) },
	}
}

// RunWith applies one analyzer to one loaded package against a shared fact
// store: FactsRun, when set, records the package's facts, and when report
// is set Run reports its diagnostics, which RunWith returns unordered.
func RunWith(a *Analyzer, pkg *Package, facts *FactSet, report bool) []Diagnostic {
	var diags []Diagnostic
	pass := newPass(pkg, facts, &diags)
	if a.FactsRun != nil {
		a.FactsRun(pass)
	}
	if report {
		a.Run(pass)
	}
	return diags
}

// Callee resolves the static callee of a call (a function, or a method of
// a concrete type called as x.M(...) or T.M(x, ...)), or nil for a dynamic
// one: a function value, or a method of an interface that no fact names (a
// method declared //nicwarp:hotpath on its interface has one).
func Callee(pass *Pass, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := pass.TypesInfo.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		sel, ok := pass.TypesInfo.Selections[fun]
		if !ok { // a package-qualified function
			fn, _ := pass.TypesInfo.Uses[fun.Sel].(*types.Func)
			return fn
		}
		fn, _ := sel.Obj().(*types.Func) // nil for a func-valued field
		if types.IsInterface(sel.Recv()) && pass.Facts.FuncFact(fn) == nil {
			return nil
		}
		return fn
	}
	return nil
}

// StoreTarget resolves an assignment target through index, slice, deref
// and field steps to the outermost struct field it writes (nil when none)
// and the package-level variable at its root (nil when it is rooted
// elsewhere): `g.a.b[1:][i] = v` writes field b of package var g.
func StoreTarget(info *types.Info, lhs ast.Expr) (field *types.Selection, root *types.Var) {
	for {
		switch e := ast.Unparen(lhs).(type) {
		case *ast.IndexExpr:
			lhs = e.X
		case *ast.SliceExpr:
			lhs = e.X
		case *ast.StarExpr:
			lhs = e.X
		case *ast.SelectorExpr:
			// Only a field selection can be written through; pkg.Var is the
			// other selector an assignment target can hold.
			sel, ok := info.Selections[e]
			if !ok {
				lhs = e.Sel
				continue
			}
			if field == nil {
				field = sel
			}
			lhs = e.X
		case *ast.Ident:
			if v, ok := info.Uses[e].(*types.Var); ok && IsPkgLevel(v) {
				return field, v
			}
			return field, nil
		default:
			return field, nil
		}
	}
}

// FieldOwner returns the type whose struct declares the field sel selects:
// sel.Recv() for a direct field, the embedded type for a promoted one
// (`o.ev` with `type outer struct{ inner }` selects inner's ev), so facts
// keyed by the declaring type follow the field through embedding.
func FieldOwner(sel *types.Selection) types.Type {
	t, path := sel.Recv(), sel.Index()
	for _, i := range path[:len(path)-1] {
		if p, ok := t.Underlying().(*types.Pointer); ok {
			t = p.Elem()
		}
		t = t.Underlying().(*types.Struct).Field(i).Type()
	}
	return t
}

// IsPkgLevel reports whether v is a package-level variable.
func IsPkgLevel(v *types.Var) bool {
	return v.Parent() == v.Pkg().Scope()
}

// IsNamed reports whether t is the named type pkgPath.name (after
// unwrapping aliases but not the underlying type).
func IsNamed(t types.Type, pkgPath, name string) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil &&
		obj.Pkg().Path() == pkgPath && obj.Name() == name
}
