// Package maprange flags `for range` over maps in deterministic code.
//
// Go randomizes map iteration order per run, so any map-range loop whose
// body's observable effects depend on visit order makes a simulation run
// irreproducible — the classic way a Time Warp kernel drifts from its
// sequential oracle without failing a single test locally.
//
// Two compliant shapes are recognized:
//
//   - Collection loops, whose body only appends keys/values to slices
//     (`x = append(x, ...)`); the canonical pattern sorts the slice before
//     use, as internal/core/core.go's object-ID collection does.
//   - Sites annotated `//nicwarp:ordered <reason>`, asserting that the
//     loop's effect is order-insensitive (a commutative fold such as a
//     min/sum reduction, or pure deletion).
//
// Everything else is flagged.
package maprange

import (
	"go/ast"
	"go/types"

	"nicwarp/internal/analysis/framework"
)

// Analyzer implements the maprange check.
var Analyzer = &framework.Analyzer{
	Name: "maprange",
	Doc: "flag map iteration in deterministic code unless it only collects " +
		"keys for sorting or carries a //nicwarp:ordered annotation",
	Run: run,
}

func run(pass *framework.Pass) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			if _, isMap := pass.TypesInfo.TypeOf(rs.X).Underlying().(*types.Map); !isMap {
				return true
			}
			if pass.Annotated(rs.Pos(), "ordered") || collectionLoop(rs) {
				return true
			}
			pass.Reportf(rs.Pos(),
				"iteration over map %s has runtime-randomized order: sort the "+
					"keys first (collect with append, then sort) or annotate the "+
					"loop with //nicwarp:ordered <reason> if its effect is "+
					"order-insensitive", types.ExprString(rs.X))
			return true
		})
	}
}

// collectionLoop reports whether every statement in the loop body is a
// self-append (`x = append(x, ...)`): the order-insensitive key-collection
// idiom whose result is sorted before use.
func collectionLoop(rs *ast.RangeStmt) bool {
	if len(rs.Body.List) == 0 {
		return false
	}
	for _, stmt := range rs.Body.List {
		asg, ok := stmt.(*ast.AssignStmt)
		if !ok || len(asg.Lhs) != 1 || len(asg.Rhs) != 1 {
			return false
		}
		call, ok := asg.Rhs[0].(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return false
		}
		fn, ok := call.Fun.(*ast.Ident)
		if !ok || fn.Name != "append" {
			return false
		}
		if types.ExprString(asg.Lhs[0]) != types.ExprString(call.Args[0]) {
			return false
		}
	}
	return true
}
