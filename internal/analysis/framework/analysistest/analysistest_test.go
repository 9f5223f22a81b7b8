package analysistest_test

import (
	"fmt"
	"go/ast"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nicwarp/internal/analysis/framework"
	"nicwarp/internal/analysis/framework/analysistest"
)

// recorder stands in for the *testing.T a fixture test passes, keeping the
// errors Run reports instead of failing.
type recorder struct {
	testing.TB
	errs []string
}

func (r *recorder) Helper() {}

func (r *recorder) Errorf(format string, args ...interface{}) {
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

// TestRunReportsMismatches: the runner is what makes every fixture test
// mean something, so each way a fixture and its analyzer can disagree must
// be a test error, and agreement must be silence.
func TestRunReportsMismatches(t *testing.T) {
	dir := t.TempDir()
	for name, data := range map[string]string{
		"go.mod": "module probe\n\ngo 1.21\n",
		"src/agree/agree.go": "package agree\n\nfunc flagged() {} // want `flagged` `flagged`\n\n" +
			"func quiet() {}\n",
		"src/disagree/disagree.go": "package disagree\n\n" +
			"func flagged() {}\n\n" + // reported, expected nowhere
			"func quiet() {} // want `flagged`\n\n" + // expected, never reported
			"func a() {} // want \"flagged\"\n\n" +
			"func b() {} // want `(`\n",
	} {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// flagger reports every function named flagged, twice.
	flagger := &framework.Analyzer{Name: "flagger", Run: func(pass *framework.Pass) {
		for _, f := range pass.Files {
			for _, d := range f.Decls {
				if fd := d.(*ast.FuncDecl); fd.Name.Name == "flagged" {
					pass.Reportf(fd.Pos(), "flagged")
					pass.Reportf(fd.Pos(), "flagged")
				}
			}
		}
	}}

	rec := &recorder{TB: t}
	analysistest.Run(rec, dir, flagger, "agree")
	if len(rec.errs) != 0 {
		t.Fatalf("agreeing fixture reported %q", rec.errs)
	}
	analysistest.Run(rec, dir, flagger, "disagree", "nosuch")
	want := []string{
		"disagree.go:3: unexpected diagnostic: flagged",
		"disagree.go:3: unexpected diagnostic: flagged",
		`disagree.go:5: expected diagnostic matching "flagged", got none`,
		`disagree.go:7:13: want expects backquoted regexps, got "\"flagged\""`,
		"disagree.go:9:13: bad want regexp \"(\"",
		"loading nosuch: cannot resolve package",
	}
	if len(rec.errs) != len(want) {
		t.Fatalf("got %d errors, want %d: %q", len(rec.errs), len(want), rec.errs)
	}
	for _, w := range want {
		found := false
		for _, e := range rec.errs {
			found = found || strings.Contains(e, w)
		}
		if !found {
			t.Errorf("no error contains %q in %q", w, rec.errs)
		}
	}
}
