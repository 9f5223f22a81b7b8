// Package walltime forbids wall-clock and ambient-entropy access in
// simulation code.
//
// The reproduction's correctness argument is a bit-exact comparison with a
// sequential oracle: every digest, event count and GVT trace must be a pure
// function of the experiment seed. A single time.Now() or math/rand draw in
// a simulation package silently breaks that — results still *look*
// plausible, they just stop being reproducible. Simulated time lives in
// nicwarp/internal/vtime and all randomness in nicwarp/internal/rng.
//
// Driver and CLI packages legitimately read the wall clock (progress
// meters, elapsed-time reports); nicwarp/cmd/... and nicwarp/examples/...
// are exempt from the clock-read rule, and an individual site elsewhere can
// be sanctioned with a `//nicwarp:wallclock <reason>` annotation. Two rules
// hold even there, because a driver is exactly where a run gets its seed:
// no math/rand or crypto/rand import anywhere in the module, and no integer
// extracted from a time.Time (Unix, UnixNano, ...) — elapsed time as a
// Duration (time.Since(t).Seconds()) stays legal, a clock-derived integer
// that could become Config.Seed does not.
package walltime

import (
	"go/ast"
	"go/types"
	"strconv"

	"nicwarp/internal/analysis/framework"
)

// allow is the package allowlist for clock reads: the driver/CLI layers.
const allow = "nicwarp/cmd/...,nicwarp/examples/..."

// Analyzer implements the walltime check.
var Analyzer = &framework.Analyzer{
	Name: "walltime",
	Doc: "forbid wall-clock reads (time.Now etc.) outside the driver " +
		"allowlist, and ambient randomness (math/rand, crypto/rand) and " +
		"integers extracted from time.Time everywhere",
	Run: run,
}

// bannedImports are packages whose mere import defeats seeded determinism.
var bannedImports = map[string]string{
	"math/rand":    "use nicwarp/internal/rng (seeded, part of saved state)",
	"math/rand/v2": "use nicwarp/internal/rng (seeded, part of saved state)",
	"crypto/rand":  "use nicwarp/internal/rng (seeded, part of saved state)",
}

// bannedTimeFuncs are time-package functions that read or wait on the wall
// clock.
var bannedTimeFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "Tick": true, "AfterFunc": true,
	"NewTimer": true, "NewTicker": true,
}

// clockInts are the time.Time methods that turn an instant into an integer.
var clockInts = map[string]bool{
	"Unix": true, "UnixNano": true, "UnixMilli": true, "UnixMicro": true,
	"Nanosecond": true,
}

func run(pass *framework.Pass) {
	allowed := framework.MatchPackage(allow, pass.Pkg.Path())
	for _, file := range pass.Files {
		for _, imp := range file.Imports {
			path, _ := strconv.Unquote(imp.Path.Value) // the parser accepted it as a string literal
			if why, bad := bannedImports[path]; bad && !pass.Annotated(imp.Pos(), "wallclock") {
				pass.Reportf(imp.Pos(),
					"import of %s in deterministic package %s: %s", path, pass.Pkg.Path(), why)
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || pass.Annotated(call.Pos(), "wallclock") {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if clockInts[sel.Sel.Name] && framework.IsNamed(pass.TypesInfo.TypeOf(sel.X), "time", "Time") {
				// time.Now().UnixNano() outside the allowlist is one bug,
				// reported once: at the clock read.
				if inner, ok := sel.X.(*ast.CallExpr); allowed || !ok || clockRead(pass, inner) == "" {
					pass.Reportf(call.Pos(),
						"integer extracted from the wall clock (time.Time.%s) in %s: "+
							"a clock-derived integer must never reach a seed or simulation "+
							"state; report elapsed time as a time.Duration",
						sel.Sel.Name, pass.Pkg.Path())
				}
			} else if name := clockRead(pass, call); name != "" && !allowed {
				pass.Reportf(call.Pos(),
					"wall-clock access time.%s in deterministic package %s: "+
						"simulated time must come from nicwarp/internal/vtime",
					name, pass.Pkg.Path())
			}
			return true
		})
	}
}

// clockRead returns the name of the banned time-package function call
// invokes, or "" when it is not one.
func clockRead(pass *framework.Pass, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !bannedTimeFuncs[sel.Sel.Name] {
		return ""
	}
	ident, ok := sel.X.(*ast.Ident)
	if !ok {
		return ""
	}
	if pkgName, ok := pass.TypesInfo.Uses[ident].(*types.PkgName); !ok || pkgName.Imported().Path() != "time" {
		return ""
	}
	return sel.Sel.Name
}
