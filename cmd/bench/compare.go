package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Comparison verdicts.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
	verdictDiffers    = "differs"
)

// row is one (workload, end-to-end metric) judgement of a comparison.
type row struct {
	workload, metric string
	a, b             float64 // medians
	ratio            float64 // median of the per-repetition B/A ratios; base is A
	spread           float64 // interquartile range of those ratios
	verdict          string
}

func loadReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// judge decides one host-time or allocation metric from the paired
// per-repetition ratios, oriented so that above 1 is worse. Both reports
// ran the same derived seeds, so pairing removes the seed-to-seed variation
// and leaves host noise. A spread wider than the bound cannot resolve a
// change of the bound's size: that is "unresolved", not "unchanged", unless
// every pair reads better.
func judge(worse []float64, bound float64) (median, spread float64, verdict string) {
	q1, q2, q3 := quartiles(worse)
	spread = q3 - q1
	switch {
	case spread > bound:
		verdict = verdictUnresolved
		allBetter := true
		for _, w := range worse {
			allBetter = allBetter && w < 1
		}
		if allBetter {
			verdict = verdictOK
		}
	case q2-1 > bound:
		verdict = verdictRegressed
	default:
		verdict = verdictOK
	}
	return q2, spread, verdict
}

// compareReports judges b against a for every workload and end-to-end
// metric. It needs both reports to have measured the same inputs.
func compareReports(a, b *report) ([]row, error) {
	if a.Env.Seed != b.Env.Seed {
		return nil, fmt.Errorf("seeds differ (%d vs %d): repetitions cannot be paired", a.Env.Seed, b.Env.Seed)
	}
	byName := make(map[string]*workloadReport, len(b.Workloads))
	for i := range b.Workloads {
		byName[b.Workloads[i].Name] = &b.Workloads[i]
	}
	var rows []row
	for i := range a.Workloads {
		wa := &a.Workloads[i]
		wb := byName[wa.Name]
		if wb == nil {
			return nil, fmt.Errorf("workload %s is missing from the second report", wa.Name)
		}
		if len(wa.Reps) != len(wb.Reps) || len(wa.Reps) == 0 {
			return nil, fmt.Errorf("workload %s: %d vs %d repetitions cannot be paired", wa.Name, len(wa.Reps), len(wb.Reps))
		}
		for j := range wa.Reps {
			if wa.Reps[j].Seed != wb.Reps[j].Seed {
				return nil, fmt.Errorf("workload %s: repetition %d ran different seeds", wa.Name, j)
			}
		}
		if !wa.Correct || !wb.Correct {
			rows = append(rows, row{workload: wa.Name, metric: "failed_runs",
				a: float64(wa.Failed), b: float64(wb.Failed), verdict: verdictDiffers})
		}
		digests := verdictOK
		for j := range wa.Reps {
			if wa.Reps[j].Digest != wb.Reps[j].Digest || wa.Reps[j].Committed != wb.Reps[j].Committed {
				digests = verdictDiffers
			}
		}
		rows = append(rows, row{workload: wa.Name, metric: "digests", ratio: 1, verdict: digests})

		for _, m := range endToEnd {
			f := repValue(m.Name)
			if f == nil {
				continue // setup_s is per report, judged below
			}
			va, vb := column(wa.Reps, f), column(wb.Reps, f)
			r := row{workload: wa.Name, metric: m.Name, a: median(va), b: median(vb)}
			worse := make([]float64, len(va))
			exact := true
			for j := range va {
				worse[j] = vb[j] / va[j]
				if m.Better == higher {
					worse[j] = va[j] / vb[j]
				}
				exact = exact && va[j] == vb[j]
			}
			var med float64
			med, r.spread, r.verdict = judge(worse, m.Bound)
			r.ratio = med
			if m.Better == higher {
				r.ratio = 1 / med
			}
			if m.Exact && !exact {
				r.verdict = verdictDiffers
			}
			rows = append(rows, r)
		}
	}
	rows = append(rows, compareSetup(a, b))
	return rows, nil
}

// compareSetup judges setup_s. Set-up has one sample per round, unpaired, so
// the medians are compared and the spread is the wider of the two reports'
// interquartile ranges.
func compareSetup(a, b *report) row {
	var bound float64
	for _, m := range endToEnd {
		if m.Name == "setup_s" {
			bound = m.Bound
		}
	}
	r := row{workload: "(all)", metric: "setup_s", a: a.SetupS, b: b.SetupS, ratio: b.SetupS / a.SetupS, verdict: verdictOK}
	for _, rep := range []*report{a, b} {
		q1, q2, q3 := quartiles(rep.SetupRounds)
		if s := (q3 - q1) / q2; s > r.spread {
			r.spread = s
		}
	}
	switch {
	case r.spread > bound:
		r.verdict = verdictUnresolved
	case r.ratio-1 > bound:
		r.verdict = verdictRegressed
	}
	return r
}

// compareFiles prints the comparison of two report files and returns the
// exit status: 1 on any regression or any exact-repeat difference.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := loadReport(pathA)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	b, err := loadReport(pathB)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	rows, err := compareReports(a, b)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	fmt.Fprintf(stdout, "A: %s (%d cpu, GOMAXPROCS %d, %s)\nB: %s (%d cpu, GOMAXPROCS %d, %s)\n",
		pathA, a.Env.NumCPU, a.Env.GOMAXPROCS, a.Env.GoVersion,
		pathB, b.Env.NumCPU, b.Env.GOMAXPROCS, b.Env.GoVersion)
	fmt.Fprintf(stdout, "%-26s %-24s %14s %14s %9s %8s  %s\n", "workload", "metric", "A", "B", "B/A", "spread", "verdict")
	status := 0
	for _, r := range rows {
		fmt.Fprintf(stdout, "%-26s %-24s %14.6g %14.6g %9.4f %8.4f  %s\n",
			r.workload, r.metric, r.a, r.b, r.ratio, r.spread, r.verdict)
		if r.verdict == verdictRegressed || r.verdict == verdictDiffers {
			status = 1
		}
	}
	return status
}
