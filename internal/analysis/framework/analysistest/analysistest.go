// Package analysistest runs an analyzer over fixture packages and checks
// its diagnostics against `// want` expectations, mirroring
// golang.org/x/tools/go/analysis/analysistest on the local framework.
//
// Fixture packages live under <testdata>/src/<importpath>/ in GOPATH-style
// layout. A fixture file marks each expected diagnostic with a trailing
// comment on the offending line:
//
//	for k := range m { // want `iteration over map`
//
// The expectation text is a backquoted regular expression; several
// expectations may follow one `want`. A fixture
// package with no `want` comments asserts that the analyzer is silent on
// it — the non-flagging half of each analyzer's test matrix.
//
// Fixtures may import real module packages (for example
// nicwarp/internal/vtime): the loader resolves module-local paths first and
// fixture paths second.
package analysistest

import (
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"nicwarp/internal/analysis/framework"
)

// expectation is one `// want` regexp, tracked for consumption.
type expectation struct {
	rx      *regexp.Regexp
	raw     string
	line    int
	file    string
	matched bool
}

// Run loads each fixture package below testdata/src, applies the analyzer,
// and reports mismatches between diagnostics and `// want` expectations as
// test errors.
func Run(t testing.TB, testdata string, a *framework.Analyzer, paths ...string) {
	t.Helper()
	loader, err := framework.NewLoader(testdata, filepath.Join(testdata, "src"))
	if err != nil {
		t.Fatalf("analysistest: %v", err)
	}
	for _, path := range paths {
		pkg, err := loader.Load(path)
		if err != nil {
			t.Errorf("analysistest: loading %s: %v", path, err)
			continue
		}
		// Mirror the driver: dependency packages (fixture or module-local)
		// contribute their facts before the target is analyzed, so
		// cross-package annotation fixtures exercise the facts layer.
		facts := framework.NewFactSet()
		for _, dep := range framework.Toposort(loader.Loaded()) {
			if dep.Path != path {
				framework.RunWith(a, dep, facts, false)
			}
		}
		check(t, pkg, framework.RunWith(a, pkg, facts, true))
	}
}

// check matches one package's diagnostics against its expectations: each
// diagnostic consumes the first unmatched expectation on its line whose
// regexp matches it.
func check(t testing.TB, pkg *framework.Package, diags []framework.Diagnostic) {
	t.Helper()
	expects := expectations(t, pkg)
	for _, d := range diags {
		pos := pkg.Fset.Position(d.Pos)
		i := slices.IndexFunc(expects, func(e *expectation) bool {
			return !e.matched && e.file == pos.Filename && e.line == pos.Line && e.rx.MatchString(d.Message)
		})
		if i < 0 {
			t.Errorf("%s:%d: unexpected diagnostic: %s", pos.Filename, pos.Line, d.Message)
			continue
		}
		expects[i].matched = true
	}
	for _, e := range expects {
		if !e.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", e.file, e.line, e.raw)
		}
	}
}

// expectations parses every `// want` comment in the package: a sequence of
// backquoted regular expressions. A malformed one is a test error.
func expectations(t testing.TB, pkg *framework.Package) []*expectation {
	t.Helper()
	var out []*expectation
	for _, f := range pkg.Files {
		for _, group := range f.Comments {
			for _, c := range group.List {
				text := strings.TrimPrefix(c.Text, "//")
				idx := strings.Index(text, "want ")
				if idx < 0 || strings.TrimSpace(text[:idx]) != "" {
					continue
				}
				pos := pkg.Fset.Position(c.Slash)
				for rest := strings.TrimSpace(text[idx+len("want "):]); rest != ""; rest = strings.TrimSpace(rest) {
					raw, after, ok := strings.Cut(strings.TrimPrefix(rest, "`"), "`")
					if !ok || rest[0] != '`' {
						t.Errorf("%s: want expects backquoted regexps, got %q", pos, rest)
						break
					}
					rx, err := regexp.Compile(raw)
					if err != nil {
						t.Errorf("%s: bad want regexp %q: %v", pos, raw, err)
						break
					}
					out = append(out, &expectation{rx: rx, raw: raw, line: pos.Line, file: pos.Filename})
					rest = after
				}
			}
		}
	}
	return out
}
