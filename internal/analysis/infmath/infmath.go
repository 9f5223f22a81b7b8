// Package infmath flags unchecked arithmetic on vtime.VTime operands.
//
// vtime.Infinity (math.MaxInt64) is a legal, load-bearing VTime value: an
// idle LP reports LVT = Infinity, and Infinity is the identity of every GVT
// min-reduction. Plain `t + delta` therefore wraps negative the moment an
// infinite (or merely large) timestamp flows in, and a negative "minimum"
// silently drags GVT backwards — the worst possible failure, because fossil
// collection then destroys state that a straggler still needs.
//
// The analyzer flags +, -, * on VTime operands (binary expressions,
// compound assignments and ++/--). Compliant alternatives:
//
//   - vtime.AddSat / vtime.Advance, the checked helpers that saturate at
//     Infinity;
//   - a `//nicwarp:finite <reason>` annotation when every operand is
//     provably below Infinity at the site.
//
// Comparisons and vtime.MinV/MaxV are always safe and never flagged;
// all-constant expressions are ignored.
package infmath

import (
	"go/ast"
	"go/token"

	"nicwarp/internal/analysis/framework"
)

// VTimePkg is the import path of the clock-types package.
const VTimePkg = "nicwarp/internal/vtime"

// Analyzer implements the infmath check.
var Analyzer = &framework.Analyzer{
	Name: "infmath",
	Doc: "flag unchecked +/-/* on vtime.VTime (Infinity wraps around); use " +
		"vtime.AddSat/Advance or annotate //nicwarp:finite",
	Run: run,
}

func isVTime(pass *framework.Pass, e ast.Expr) bool {
	return framework.IsNamed(pass.TypesInfo.TypeOf(e), VTimePkg, "VTime")
}

func run(pass *framework.Pass) error {
	if pass.Pkg.Path() == VTimePkg {
		return nil // the checked helpers themselves live here
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				switch n.Op {
				case token.ADD, token.SUB, token.MUL:
				default:
					return true
				}
				if !isVTime(pass, n.X) && !isVTime(pass, n.Y) {
					return true
				}
				if tv, ok := pass.TypesInfo.Types[n]; ok && tv.Value != nil {
					return true // constant-folded, checked at compile time
				}
				if pass.Annotated(n.Pos(), "finite") {
					return true
				}
				pass.Reportf(n.Pos(),
					"unchecked %q on vtime.VTime may wrap past Infinity; use "+
						"vtime.AddSat/vtime.Advance or annotate //nicwarp:finite <reason>",
					n.Op.String())
			case *ast.AssignStmt:
				switch n.Tok {
				case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN:
				default:
					return true
				}
				if len(n.Lhs) != 1 || !isVTime(pass, n.Lhs[0]) {
					return true
				}
				if pass.Annotated(n.Pos(), "finite") {
					return true
				}
				pass.Reportf(n.Pos(),
					"unchecked %q on vtime.VTime may wrap past Infinity; use "+
						"vtime.AddSat/vtime.Advance or annotate //nicwarp:finite <reason>",
					n.Tok.String())
			case *ast.IncDecStmt:
				if !isVTime(pass, n.X) {
					return true
				}
				if pass.Annotated(n.Pos(), "finite") {
					return true
				}
				pass.Reportf(n.Pos(),
					"unchecked %q on vtime.VTime may wrap past Infinity; use "+
						"vtime.AddSat/vtime.Advance or annotate //nicwarp:finite <reason>",
					n.Tok.String())
			}
			return true
		})
	}
	return nil
}
