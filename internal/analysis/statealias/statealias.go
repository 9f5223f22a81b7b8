// Package statealias flags SaveState implementations whose snapshots alias
// live object state — the classic Time Warp rollback bug.
//
// The kernel calls SaveState before every event execution and hands the
// result back to RestoreState on rollback. If the snapshot shares mutable
// storage with the live state (a slice backing array, a map, a pointer),
// later event executions corrupt the history they are supposed to be able
// to roll back to, and the run diverges from the sequential oracle only
// under rollback pressure — the hardest kind of bug to bisect.
//
// The mechanical rule: in any method named SaveState with no parameters
// and one result, a `return` whose operand is a plain value (identifier,
// field selector, dereference — anything that is not a freshly built
// composite literal or a call) is treated as a raw shallow copy and flagged
// when its type transitively contains reference fields (slice, map,
// pointer, chan, interface). Returning `&x` for a non-literal x is always
// flagged: the snapshot then IS the live state. Deep-copying
// implementations either return a composite literal / clone call, or carry
// a `//nicwarp:deepcopy <reason>` annotation on the return.
//
// The one call that is not assumed to build afresh is Save on a
// timewarp.Snapshots[T], the free list every in-repo model snapshots
// through: it copies a T by value, so `return o.snaps.Save(&o.st)` is held
// to the rule for T, exactly as `return o.st` would be.
//
// States built only of scalars — including rng.Source, whose whole state is
// one uint64, and fixed-size arrays as in the POLICE centre's open-incident
// table — pass untouched: value copying is exactly how Time Warp state
// saving is meant to work here.
package statealias

import (
	"go/ast"
	"go/token"
	"go/types"

	"nicwarp/internal/analysis/framework"
)

// Analyzer implements the statealias check.
var Analyzer = &framework.Analyzer{
	Name: "statealias",
	Doc: "flag SaveState snapshots that shallow-copy " +
		"slices/maps/pointers (rollback would alias live state)",
	Run: run,
}

func run(pass *framework.Pass) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || fn.Body == nil || fn.Name.Name != "SaveState" ||
				fn.Type.Params.NumFields() != 0 || fn.Type.Results.NumFields() != 1 {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if ret, ok := n.(*ast.ReturnStmt); ok && len(ret.Results) == 1 {
					checkReturn(pass, ret)
				}
				return true
			})
		}
	}
}

// checkReturn applies the rule to one `return expr` inside SaveState.
func checkReturn(pass *framework.Pass, ret *ast.ReturnStmt) {
	expr := ast.Unparen(ret.Results[0])
	if pass.Annotated(ret.Pos(), "deepcopy") {
		return
	}
	t := pass.TypesInfo.TypeOf(expr)
	switch e := expr.(type) {
	case *ast.CompositeLit:
		return // freshly built; assumed to deep-copy its inputs
	case *ast.CallExpr:
		// Freshly built and assumed to deep-copy its inputs, unless it is
		// the value copy a snapshot free list makes.
		if t = snapshotsSave(pass, e); t == nil {
			return
		}
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			if _, lit := ast.Unparen(e.X).(*ast.CompositeLit); lit {
				return // &T{...}: fresh allocation
			}
			pass.Reportf(ret.Pos(),
				"SaveState returns a pointer into live state (%s): the snapshot "+
					"and the object share every field, so rollback restores nothing; "+
					"return a value copy or annotate //nicwarp:deepcopy <reason>",
				types.ExprString(expr))
			return
		}
	}
	// Untyped nil is a basic type, so `return nil` passes both checks.
	if _, ok := t.Underlying().(*types.Pointer); ok {
		pass.Reportf(ret.Pos(),
			"SaveState returns a pointer-typed snapshot (%s) that aliases live "+
				"state; return a value copy or annotate //nicwarp:deepcopy <reason>",
			types.ExprString(expr))
		return
	}
	if path, shared := refField(t); shared {
		pass.Reportf(ret.Pos(),
			"SaveState snapshot shallow-copies reference state (field %s): the "+
				"copy shares storage with the live object and rollback will alias "+
				"it; deep-copy the field or annotate //nicwarp:deepcopy <reason>",
			path)
	}
}

// snapshotsSave returns T when call is Save on a timewarp.Snapshots[T] (or
// a pointer to one), and nil for any other call.
func snapshotsSave(pass *framework.Pass, call *ast.CallExpr) types.Type {
	var t types.Type
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Save" {
		t = pass.TypesInfo.TypeOf(sel.X)
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
	}
	if !framework.IsNamed(t, "nicwarp/internal/timewarp", "Snapshots") {
		return nil
	}
	return t.(*types.Named).TypeArgs().At(0)
}

// refField reports whether t transitively contains a field whose storage a
// value copy would share, returning the path of the first such field. It
// needs no cycle guard: a type can only contain itself through a reference
// kind, which answers at once.
func refField(t types.Type) (string, bool) {
	switch u := t.Underlying().(type) {
	// An interface field can hold anything, including reference types;
	// the kernel's own snapshot wrapper stores SaveState results in an
	// interface, so only the concrete state type matters — but a state
	// struct embedding an interface cannot be checked, so flag it.
	case *types.Slice, *types.Map, *types.Pointer, *types.Chan, *types.Signature, *types.Interface:
		return "", true
	case *types.Array:
		if p, shared := refField(u.Elem()); shared {
			return "[i]" + p, true
		}
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			f := u.Field(i)
			if p, shared := refField(f.Type()); shared {
				if p == "" {
					return f.Name(), true
				}
				return f.Name() + "." + p, true
			}
		}
	}
	return "", false
}
