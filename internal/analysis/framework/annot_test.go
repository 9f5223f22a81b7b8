package framework

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// parseOne parses a single source file for annotation tests.
func parseOne(t *testing.T, src string) (*token.FileSet, []*ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "annot.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return fset, []*ast.File{f}
}

func TestAnnotationLookup(t *testing.T) {
	fset, files := parseOne(t, `package p

func sameLine() { _ = 1 } //nicwarp:ordered same-line marker

//nicwarp:hotpath line-above marker
func lineAbove() {}

func bare() {}
`)
	s := CollectAnnotations(fset, files)
	if errs := s.Errors(); len(errs) != 0 {
		t.Fatalf("unexpected grammar errors: %v", errs)
	}
	decls := files[0].Decls
	if !s.At(fset, decls[0].Pos(), "ordered") {
		t.Error("same-line annotation not found")
	}
	if !s.At(fset, decls[1].Pos(), "hotpath") {
		t.Error("line-above annotation not found")
	}
	if s.At(fset, decls[0].Pos(), "hotpath") {
		t.Error("wrong verb matched")
	}
	if s.At(fset, decls[2].Pos(), "ordered") {
		t.Error("annotation leaked to an unannotated decl")
	}
}

func TestAnnotationGrammarErrors(t *testing.T) {
	cases := []struct {
		name, src, wantErr string
	}{
		{"unknown verb", "package p\n\n//nicwarp:hotpth typo\nfunc f() {}\n",
			"unknown //nicwarp:hotpth annotation verb"},
		{"missing reason", "package p\n\n//nicwarp:ordered\nfunc f() {}\n",
			"//nicwarp:ordered without a reason"},
		{"missing reason after space", "package p\n\n//nicwarp:finite   \nfunc f() {}\n",
			"//nicwarp:finite without a reason"},
		{"no verb", "package p\n\n//nicwarp: just words\nfunc f() {}\n",
			"annotation without a verb"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fset, files := parseOne(t, c.src)
			s := CollectAnnotations(fset, files)
			errs := s.Errors()
			if len(errs) != 1 {
				t.Fatalf("got %d grammar errors, want 1: %v", len(errs), errs)
			}
			if !strings.Contains(errs[0].Message, c.wantErr) {
				t.Errorf("error %q does not mention %q", errs[0].Message, c.wantErr)
			}
			// A malformed annotation must not suppress anything.
			if s.At(fset, files[0].Decls[0].Pos(), "ordered") ||
				s.At(fset, files[0].Decls[0].Pos(), "finite") {
				t.Error("malformed annotation still suppresses")
			}
		})
	}
}

func TestVerbNamesSortedAndComplete(t *testing.T) {
	names := VerbNames()
	if len(names) != len(Verbs) {
		t.Fatalf("VerbNames returned %d names, registry has %d", len(names), len(Verbs))
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("VerbNames not sorted: %q before %q", names[i-1], names[i])
		}
	}
	for _, required := range []string{"owns", "grows", "hotpath", "sharded", "alloc"} {
		if _, ok := Verbs[required]; !ok {
			t.Errorf("verb %q missing from registry", required)
		}
	}
}
