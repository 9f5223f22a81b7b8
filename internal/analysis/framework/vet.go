package framework

import (
	"cmp"
	"fmt"
	"go/token"
	"slices"
	"strings"
)

// This file is the engine behind cmd/nicwarp-vet: load the module, walk
// packages in dependency order so exported facts exist before their
// importers are analyzed, apply the analyzer suite to the requested
// packages and the facts-only passes to everything else. It lives in the
// framework (not the command) so it is testable without spawning the
// binary.

// AnnotationAnalyzer is the pseudo-analyzer name under which annotation
// grammar errors are reported.
const AnnotationAnalyzer = "annotation"

// Finding is one diagnostic located in a file, attributed to an analyzer.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// RunVet applies analyzers to the packages matching patterns ("./...",
// "./dir/...", "./dir"; see LoadPatterns) in the module enclosing dir, and
// returns the findings in file/line order. Every loaded package, requested
// or a dependency, contributes its facts; only requested packages report.
// Any finding fails the build.
func RunVet(dir string, analyzers []*Analyzer, patterns ...string) ([]Finding, error) {
	loader, err := NewLoader(dir)
	if err != nil {
		return nil, err
	}
	requested, err := loader.LoadPatterns(patterns...)
	if err != nil {
		return nil, err
	}
	isRequested := make(map[string]bool, len(requested))
	for _, pkg := range requested {
		isRequested[pkg.Path] = true
	}

	facts := NewFactSet()
	var findings []Finding
	add := func(analyzer string, diags []Diagnostic) {
		for _, d := range diags {
			findings = append(findings, Finding{analyzer, loader.Fset.Position(d.Pos), d.Message})
		}
	}
	for _, pkg := range Toposort(loader.Loaded()) {
		report := isRequested[pkg.Path]
		if report {
			add(AnnotationAnalyzer, CheckAnnotations(pkg))
		}
		for _, a := range analyzers {
			add(a.Name, RunWith(a, pkg, facts, report))
		}
	}

	slices.SortFunc(findings, func(a, b Finding) int {
		return cmp.Or(strings.Compare(a.Pos.Filename, b.Pos.Filename),
			cmp.Compare(a.Pos.Line, b.Pos.Line),
			cmp.Compare(a.Pos.Column, b.Pos.Column),
			strings.Compare(a.Analyzer, b.Analyzer))
	})
	return findings, nil
}

// SelectAnalyzers filters the suite down to the comma-separated names in
// only (empty = everything), erroring on unknown names — a silently
// ignored typo would skip a checker while looking like a passing run.
func SelectAnalyzers(all []*Analyzer, only string) ([]*Analyzer, error) {
	if only == "" {
		return all, nil
	}
	byName := make(map[string]*Analyzer, len(all))
	known := make([]string, 0, len(all))
	for _, a := range all {
		byName[a.Name] = a
		known = append(known, a.Name)
	}
	var out []*Analyzer
	seen := map[string]bool{}
	for _, name := range strings.Split(only, ",") {
		name = strings.TrimSpace(name)
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q (known: %s)", name, strings.Join(known, ", "))
		}
		if !seen[name] {
			seen[name] = true
			out = append(out, a)
		}
	}
	return out, nil
}
