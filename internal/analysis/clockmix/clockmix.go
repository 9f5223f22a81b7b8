// Package clockmix flags conversions that launder a value between the two
// clock types of nicwarp/internal/vtime.
//
// The repository deliberately splits time into vtime.VTime (Time Warp
// virtual time: event timestamps, LVT, GVT) and vtime.ModelTime (the
// hardware model's nanosecond clock). Both are int64 underneath, so the
// compiler happily accepts vtime.ModelTime(v) for a VTime v — or the
// two-step vtime.ModelTime(int64(v)) — and either one schedules hardware
// work off a virtual timestamp or vice versa, the exact bug class the type
// split exists to prevent. This analyzer rejects any conversion whose
// source type, after unwrapping intermediate numeric conversions, is the
// other clock. There is no annotation escape: code that genuinely needs a
// cross-clock relationship must express it through arithmetic on a
// documented rate (as vtime.TransferTime and vtime.Cycles do), not a cast.
package clockmix

import (
	"go/ast"
	"go/types"

	"nicwarp/internal/analysis/framework"
)

// VTimePkg is the import path of the clock-types package.
const VTimePkg = "nicwarp/internal/vtime"

// Analyzer implements the clockmix check.
var Analyzer = &framework.Analyzer{
	Name: "clockmix",
	Doc: "flag conversions between vtime.VTime and vtime.ModelTime, " +
		"including ones laundered through int64",
	Run: run,
}

// clockKind classifies a type as one of the two clocks, or neither.
type clockKind int

const (
	notClock clockKind = iota
	virtualClock
	modelClock
)

func kindOf(t types.Type) clockKind {
	switch {
	case framework.IsNamed(t, VTimePkg, "VTime"):
		return virtualClock
	case framework.IsNamed(t, VTimePkg, "ModelTime"):
		return modelClock
	default:
		return notClock
	}
}

func (k clockKind) String() string {
	if k == virtualClock {
		return "vtime.VTime"
	}
	return "vtime.ModelTime"
}

func run(pass *framework.Pass) {
	if pass.Pkg.Path() == VTimePkg {
		return // the clock package itself converts for formatting
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 1 {
				return true
			}
			tv, ok := pass.TypesInfo.Types[call.Fun]
			if !ok || !tv.IsType() {
				return true
			}
			dst := kindOf(tv.Type)
			if dst == notClock {
				return true
			}
			src := kindOf(pass.TypesInfo.TypeOf(unwrapNumericConversions(pass, call.Args[0])))
			if src != notClock && src != dst {
				pass.Reportf(call.Pos(),
					"conversion of %s to %s defeats the virtual/model clock type "+
						"split; derive the value through a documented rate "+
						"(vtime.TransferTime, vtime.Cycles) instead of casting",
					src, dst)
			}
			return true
		})
	}
}

// unwrapNumericConversions peels conversions to non-clock types off e, so
// that vtime.ModelTime(int64(v)) is analyzed as a conversion from v's type,
// not from int64. A conversion whose result converts to a clock is numeric
// (or a type parameter over numbers), so no other kind needs excluding.
func unwrapNumericConversions(pass *framework.Pass, e ast.Expr) ast.Expr {
	for {
		e = ast.Unparen(e)
		call, ok := e.(*ast.CallExpr)
		if !ok || len(call.Args) != 1 {
			return e
		}
		tv, ok := pass.TypesInfo.Types[call.Fun]
		if !ok || !tv.IsType() || kindOf(tv.Type) != notClock {
			return e
		}
		e = call.Args[0]
	}
}
