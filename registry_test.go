package nicwarp

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nicwarp/internal/runner"
)

// TestRegistryMatchesOracle runs every registry point at a small scale with
// the sequential oracle armed, so no table can come from a run whose
// committed events or digest differ from a sequential execution. The
// registry arms the oracle itself only on early-cancellation points: fig4
// and fig5 feed cmd/bench's suite-sweep, whose timed region must not
// include an oracle run. Every table is then rendered and its header
// checked against the committed results file.
func TestRegistryMatchesOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every registry point")
	}
	opts := FigureOpts{Scale: 0.02}
	exps := Experiments()
	var jobs []runner.Job
	bounds := []int{0}
	for _, exp := range exps {
		jobs = append(jobs, exp.Jobs(opts)...)
		bounds = append(bounds, len(jobs))
	}
	for i := range jobs {
		jobs[i].Config.VerifyOracle = true
	}
	results := (&runner.Runner{}).Run(jobs)
	for i, exp := range exps {
		got := results[bounds[i]:bounds[i+1]]
		failed := false
		for _, r := range got {
			if r.Err != nil {
				t.Errorf("%s: %v", r.Job.Name, r.Err)
				failed = true
			}
		}
		if failed {
			continue
		}
		tbl, err := exp.Render(opts, got)
		if err != nil {
			t.Errorf("%s: %v", exp.Name, err)
			continue
		}
		committed, err := os.ReadFile(filepath.Join("results", exp.Output+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		header := func(csv string) string { return strings.SplitN(csv, "\n", 2)[0] }
		if got, want := header(tbl.CSV()), header(string(committed)); got != want {
			t.Errorf("%s: header %q, committed results/%s.csv has %q", exp.Name, got, exp.Output, want)
		}
	}
}

// TestRenderRejectsMisshapenRow pins Render's width check: a row whose
// cells do not fill the header is an error, not a ragged table.
func TestRenderRejectsMisshapenRow(t *testing.T) {
	exp := Experiment{
		Name:   "misshapen",
		header: []string{"variant", "exec_sec", "extra"},
		rows: func(FigureOpts) []row {
			return variants("%s", []string{"only"}, func(string) Config { return Config{} })
		},
		cells: func(r []*Result) []interface{} { return []interface{}{r[0].ExecTime.Seconds()} },
	}
	if _, err := exp.Render(FigureOpts{}, []runner.Result{{Res: &Result{}}}); err == nil {
		t.Fatal("a two-cell row rendered under a three-column header")
	}
	if _, err := exp.Render(FigureOpts{}, nil); err == nil {
		t.Fatal("a result count that does not match the points rendered")
	}
}
