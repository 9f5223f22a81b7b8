// Package analysis assembles the nicwarp-vet analyzer suite: the
// mechanical enforcement of the determinism invariants that the Time Warp
// kernel's oracle comparison rests on (see DESIGN.md, "Determinism
// invariants"). The individual analyzers live in subpackages; the
// cmd/nicwarp-vet driver and the tests consume them through All.
package analysis

import (
	"nicwarp/internal/analysis/clockmix"
	"nicwarp/internal/analysis/framework"
	"nicwarp/internal/analysis/hotalloc"
	"nicwarp/internal/analysis/infmath"
	"nicwarp/internal/analysis/maprange"
	"nicwarp/internal/analysis/poolown"
	"nicwarp/internal/analysis/shardsafe"
	"nicwarp/internal/analysis/statealias"
	"nicwarp/internal/analysis/walltime"
)

// All returns the full analyzer suite in stable order.
func All() []*framework.Analyzer {
	return []*framework.Analyzer{
		clockmix.Analyzer,
		hotalloc.Analyzer,
		infmath.Analyzer,
		maprange.Analyzer,
		poolown.Analyzer,
		shardsafe.Analyzer,
		statealias.Analyzer,
		walltime.Analyzer,
	}
}
