package nicwarp

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestEveryCounterHasAReader holds the reader rule of DESIGN.md §8: a
// stats.Counter field declared in non-test code must be read back somewhere
// as X.Field.Value(), in the simulator, a command or a test. A counter that
// is only ever incremented costs a write on a hot path and tells nobody
// anything. The check is syntactic and keyed by field name alone, so a
// reader of one package's Processed also covers another's; that errs on the
// side of passing.
func TestEveryCounterHasAReader(t *testing.T) {
	fset := token.NewFileSet()
	declared := map[string]string{} // field name -> position of a declaration
	read := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		isTest := strings.HasSuffix(path, "_test.go")
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.StructType:
				if isTest {
					return true
				}
				for _, field := range n.Fields.List {
					if !isStatsCounter(field.Type) {
						continue
					}
					for _, name := range field.Names {
						declared[name.Name] = fset.Position(name.Pos()).String()
					}
				}
			case *ast.CallExpr:
				// X.Field.Value()
				if call, ok := n.Fun.(*ast.SelectorExpr); ok && call.Sel.Name == "Value" {
					if field, ok := call.X.(*ast.SelectorExpr); ok {
						read[field.Sel.Name] = true
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(declared) == 0 {
		t.Fatal("found no stats.Counter fields: the walk is broken")
	}
	var unread []string
	for name, pos := range declared {
		if !read[name] {
			unread = append(unread, pos+": "+name)
		}
	}
	sort.Strings(unread)
	for _, u := range unread {
		t.Errorf("%s is a stats.Counter nothing reads through .Value()", u)
	}
}

// isStatsCounter reports whether a field type is spelled stats.Counter.
func isStatsCounter(e ast.Expr) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Counter" {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	return ok && pkg.Name == "stats"
}
