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
package framework

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer describes one static check, mirroring analysis.Analyzer.
type Analyzer struct {
	// Name is the analyzer's identifier, used in diagnostics and -only.
	Name string
	// Doc is the analyzer's documentation, shown by `nicwarp-vet -list`.
	Doc string
	// Run applies the analyzer to one package, reporting diagnostics and
	// (for fact-bearing analyzers) recording facts about the package's
	// symbols in Pass.Facts.
	Run func(*Pass) error
	// FactsRun, when non-nil, computes only the analyzer's exported facts
	// for a package — no diagnostics. The driver applies it to dependency
	// packages that are loaded for type information but not themselves
	// under analysis, so cross-package facts exist before Run needs them.
	FactsRun func(*Pass) error
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
// store and returns its diagnostics sorted by position.
func RunWith(a *Analyzer, pkg *Package, facts *FactSet) ([]Diagnostic, error) {
	var diags []Diagnostic
	pass := newPass(pkg, facts, &diags)
	if err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("%s: %s: %v", a.Name, pkg.Path, err)
	}
	sort.Slice(diags, func(i, j int) bool {
		pi, pj := pkg.Fset.Position(diags[i].Pos), pkg.Fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return pi.Column < pj.Column
	})
	return diags, nil
}

// RunFacts applies the analyzer's facts-only pass (if any) to a dependency
// package, recording facts into the shared store without diagnostics.
func RunFacts(a *Analyzer, pkg *Package, facts *FactSet) error {
	if a.FactsRun == nil {
		return nil
	}
	var discard []Diagnostic
	pass := newPass(pkg, facts, &discard)
	if err := a.FactsRun(pass); err != nil {
		return fmt.Errorf("%s: facts for %s: %v", a.Name, pkg.Path, err)
	}
	return nil
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
