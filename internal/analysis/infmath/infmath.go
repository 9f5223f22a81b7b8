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

func run(pass *framework.Pass) {
	if pass.Pkg.Path() == VTimePkg {
		return // the checked helpers themselves live here
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			// op is the arithmetic n applies to a VTime operand, if any;
			// constant-folded expressions are checked at compile time.
			var op token.Token
			switch n := n.(type) {
			case *ast.BinaryExpr:
				if (isVTime(pass, n.X) || isVTime(pass, n.Y)) && pass.TypesInfo.Types[n].Value == nil {
					op = n.Op
				}
			case *ast.AssignStmt:
				if len(n.Lhs) == 1 && isVTime(pass, n.Lhs[0]) {
					op = n.Tok
				}
			case *ast.IncDecStmt:
				if isVTime(pass, n.X) {
					op = n.Tok
				}
			}
			switch op {
			case token.ADD, token.SUB, token.MUL, token.ADD_ASSIGN, token.SUB_ASSIGN,
				token.MUL_ASSIGN, token.INC, token.DEC:
				if !pass.Annotated(n.Pos(), "finite") {
					pass.Reportf(n.Pos(),
						"unchecked %q on vtime.VTime may wrap past Infinity; use "+
							"vtime.AddSat/vtime.Advance or annotate //nicwarp:finite <reason>",
						op.String())
				}
			}
			return true
		})
	}
}
