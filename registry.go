package nicwarp

import (
	"fmt"
	"sort"
	"strings"

	"nicwarp/internal/runner"
	"nicwarp/internal/stats"
)

// Experiment is one named entry of the evaluation suite: a figure of the
// paper or an ablation from DESIGN.md. Every entry is one table shape — a
// header, then one row per x-axis value or variant, each row filled from
// the results of that row's experiment points. Jobs (what to run: a flat
// batch of independent points for internal/runner) and Render (how to
// present it) walk the same rows, so any executor — the serial loop, the
// parallel pool, a cache-warm replay — produces byte-identical tables from
// the same opts.
type Experiment struct {
	// Name is the stable CLI name ("fig4", "abl-nic-speed") resolved by
	// cmd/experiments -only and ExperimentByName.
	Name string
	// Output is the results file stem ("figure4_raid_gvt" →
	// figure4_raid_gvt.txt/.csv under -out).
	Output string
	// Description is a one-line summary shown in listings and progress
	// headers.
	Description string

	// header names the table's columns; the first holds the row label.
	header []string
	// alignRight right-aligns every column after the first.
	alignRight bool
	// rows lists the table's rows under opts (defaults applied).
	rows func(o FigureOpts) []row
	// cells fills in a row after its label from the row's point results,
	// in point order. A cell's Go type is part of the table's bytes:
	// counts print as integers, float64 values with %.4g.
	cells func(r []*Result) []interface{}
}

// Jobs expands the experiment into its points: every row's points, in row
// order, each named "<experiment>/<point>".
func (e Experiment) Jobs(opts FigureOpts) []runner.Job {
	var jobs []runner.Job
	for _, r := range e.rows(opts.withDefaults()) {
		for _, p := range r.points {
			p.Name = e.Name + "/" + p.Name
			jobs = append(jobs, p)
		}
	}
	return jobs
}

// Render folds the point results (in Jobs order, as returned by
// runner.Runner.Run) into the experiment's table. It fails on the first
// errored point, on a result count that does not match Jobs, and on a row
// whose cell count differs from the header.
func (e Experiment) Render(opts FigureOpts, results []runner.Result) (*stats.Table, error) {
	if n := len(e.Jobs(opts)); len(results) != n {
		return nil, fmt.Errorf("%s: %d results for %d points", e.Name, len(results), n)
	}
	t := stats.NewTable(e.header...)
	if e.alignRight {
		t.AlignRight()
	}
	for _, r := range e.rows(opts.withDefaults()) {
		res := make([]*Result, len(r.points))
		for i := range res {
			if err := results[i].Err; err != nil {
				return nil, err
			}
			res[i] = results[i].Res
		}
		results = results[len(res):]
		cells := append([]interface{}{r.label}, e.cells(res)...)
		if len(cells) != len(e.header) {
			return nil, fmt.Errorf("%s: row %s has %d cells for %d columns", e.Name, r.label, len(cells), len(e.header))
		}
		t.AddRow(cells...)
	}
	return t, nil
}

// Experiments returns the full registry, in suite order: the paper's
// figures first, then the ablations. The slice is freshly allocated;
// callers may reorder or filter it.
func Experiments() []Experiment {
	return append([]Experiment{
		gvtSweep("fig4", "figure4_raid_gvt",
			"Figure 4: RAID execution time vs GVT period (WARPED vs NIC-GVT)",
			func(o FigureOpts) App { return RAID(RAIDGVTConfig(o.scaled(20000))) }),
		gvtSweep("fig5", "figure5_police_gvt",
			"Figure 5: POLICE execution time and GVT rounds vs GVT period",
			func(o FigureOpts) App { return Police(PoliceConfig(o.scaled(900))) }),
		cancelSweep("fig6", "figure6_raid_cancel",
			"Figure 6: RAID early cancellation vs request count",
			"requests", RAIDRequestCounts, func(x int) App { return RAID(RAIDCancelConfig(x)) }),
		cancelSweep("fig78", "figure7_8_police_cancel",
			"Figures 7 and 8: POLICE early cancellation vs station count",
			"stations", PoliceStations, func(x int) App { return Police(PoliceConfig(x)) }),
		figScale(),
	}, ablations()...)
}

// AblationNames returns the names of the ablation experiments (the abl-*
// entries), in suite order. cmd/experiments expands the "ablations" alias
// through it.
func AblationNames() []string {
	var names []string
	for _, a := range ablations() {
		names = append(names, a.Name)
	}
	return names
}

// ExperimentNames returns every registered experiment name, in suite order.
func ExperimentNames() []string {
	var names []string
	for _, e := range Experiments() {
		names = append(names, e.Name)
	}
	return names
}

// ExperimentByName resolves a registry name. Unknown names — the silent
// no-op class of bug that -only fig9 used to be — return an error listing
// every valid name.
func ExperimentByName(name string) (Experiment, error) {
	for _, e := range Experiments() {
		if e.Name == name {
			return e, nil
		}
	}
	valid := ExperimentNames()
	sort.Strings(valid)
	return Experiment{}, fmt.Errorf("unknown experiment %q (valid: %s, or the alias %q)",
		name, strings.Join(valid, ", "), "ablations")
}
