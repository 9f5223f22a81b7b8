package walltime

import (
	"testing"

	"nicwarp/internal/analysis/framework"
	"nicwarp/internal/analysis/framework/analysistest"
)

func TestWalltime(t *testing.T) {
	analysistest.Run(t, "../testdata", Analyzer, "walltime_bad", "walltime_ok", "nicwarp/cmd/walltime_driver", "faultplane_bad_walltime", "faultplane_ok", "d4heap_ok")
}

func TestAllowed(t *testing.T) {
	allow := "nicwarp/cmd/...,nicwarp/examples/...,nicwarp/internal/special"

	cases := []struct {
		pkg  string
		want bool
	}{
		{"nicwarp/cmd/experiments", true},
		{"nicwarp/cmd", true}, // p/... matches p itself
		{"nicwarp/cmdline", false},
		{"nicwarp/examples/basic/deep", true},
		{"nicwarp/internal/special", true},
		{"nicwarp/internal/special/sub", false}, // exact pattern, no /...
		{"nicwarp/internal/core", false},
		{"walltime_bad", false},
	}
	for _, c := range cases {
		if got := framework.MatchPackage(allow, c.pkg); got != c.want {
			t.Errorf("MatchPackage(%q) = %v, want %v", c.pkg, got, c.want)
		}
	}
}
