package nicwarp

import (
	"strings"
	"testing"

	"nicwarp/internal/runner"
)

// detOpts is a heavily scaled-down suite configuration: small enough that
// the three-way comparison below stays fast under -race, large enough that
// every point still rolls back and exchanges real traffic.
var detOpts = FigureOpts{Nodes: 4, Seed: 3, Scale: 0.01}

// renderWith executes an experiment's batch with the given executor and
// renders the table.
func renderWith(t *testing.T, exp Experiment, run func([]runner.Job) []runner.Result) string {
	t.Helper()
	tbl, err := exp.Render(detOpts, run(exp.Jobs(detOpts)))
	if err != nil {
		t.Fatal(err)
	}
	return tbl.String() + "\n" + tbl.CSV()
}

// TestParallelAndCachedRunsMatchSerial is the determinism contract of the
// parallel sweep runner: for the same seed, the serial loop (one Run call
// after another, the pre-runner code path), the parallel worker pool, and a
// cache-warm replay must render byte-identical tables — and the warm replay
// must execute zero points.
func TestParallelAndCachedRunsMatchSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-execution sweep comparison")
	}
	for _, name := range []string{"fig4", "fig78", "abl-gvt-algorithms"} {
		exp, err := ExperimentByName(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			// Serial reference: direct Run calls in submission order, no
			// pool, no cache.
			serial := renderWith(t, exp, func(jobs []runner.Job) []runner.Result {
				out := make([]runner.Result, len(jobs))
				for i, j := range jobs {
					res, err := Run(j.Config)
					out[i] = runner.Result{Job: j, Res: res, Err: err}
				}
				return out
			})

			// Parallel pool over a shared cache.
			cache := runner.NewMemCache()
			pool := &runner.Runner{Workers: 4, Cache: cache}
			parallel := renderWith(t, exp, pool.Run)
			if parallel != serial {
				t.Errorf("parallel table differs from serial:\n--- serial ---\n%s--- parallel ---\n%s", serial, parallel)
			}

			// Cache-warm replay: byte-identical again, zero executions.
			jobs := exp.Jobs(detOpts)
			warmResults := pool.Run(jobs)
			if got := runner.CachedCount(warmResults); got != len(jobs) {
				t.Errorf("warm re-run executed %d of %d points", len(jobs)-got, len(jobs))
			}
			tbl, err := exp.Render(detOpts, warmResults)
			if err != nil {
				t.Fatal(err)
			}
			if warm := tbl.String() + "\n" + tbl.CSV(); warm != serial {
				t.Errorf("cache-warm table differs from serial:\n--- serial ---\n%s--- warm ---\n%s", serial, warm)
			}
		})
	}
}

// TestRegistryCoversSuite asserts the registry names the four figures and
// every ablation, resolves each name, and rejects unknown names with a
// listing. That every entry's rows fit its header is Render's own check,
// exercised on every entry by TestRegistryMatchesOracle.
func TestRegistryCoversSuite(t *testing.T) {
	want := []string{"fig4", "fig5", "fig6", "fig78", "figscale",
		"abl-nic-speed", "abl-drop-buffer", "abl-cancel-policy",
		"abl-gvt-algorithms", "abl-rx-buffer", "abl-gvt-tree",
		"abl-stress-faults", "abl-piggyback-patience", "abl-batching"}
	got := ExperimentNames()
	if len(got) != len(want) {
		t.Fatalf("registry has %d experiments, want %d: %v", len(got), len(want), got)
	}
	for i, name := range want {
		if got[i] != name {
			t.Errorf("registry[%d] = %s, want %s", i, got[i], name)
		}
		exp, err := ExperimentByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if exp.Output == "" || exp.Description == "" {
			t.Errorf("experiment %s is incomplete", name)
		}
	}
	if _, err := ExperimentByName("fig9"); err == nil {
		t.Fatal("unknown experiment resolved")
	} else {
		for _, sub := range []string{"fig9", "fig4", "abl-nic-speed"} {
			if !strings.Contains(err.Error(), sub) {
				t.Errorf("unknown-name error missing %q: %v", sub, err)
			}
		}
	}
}
