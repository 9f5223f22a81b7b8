// Command bench is the repository's benchmark: six named workloads, measured
// on two clocks (host time of the Go process, modeled time of the simulated
// cluster), every run verified against the sequential oracle. README.md in
// this directory defines the workloads, the metrics and their bounds.
//
//	go run ./cmd/bench                          all workloads, traced pass, full report
//	go run ./cmd/bench -out A.json              ... also written to A.json
//	go run ./cmd/bench -compare A.json B.json   judge B against A
//	go run ./cmd/bench -workload police-cancel -seed 3 -seconds 12 -trace 0
//
// The last form is what the benchmark driver runs (see BENCHMARK.json): one
// workload, and the last line of standard output is one JSON object with the
// keys correct, attempted, failed and metrics — the end-to-end metrics with
// -trace 0, the per-layer metrics with -trace 1. The exit status is non-zero
// when any repetition failed or disagreed with the oracle.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workloadName := fs.String("workload", "", "run only this workload and print the driver's result line (default: all six)")
	seed := fs.Uint64("seed", 1, "seed the per-repetition simulation seeds derive from")
	reps := fs.Int("reps", 11, "timed repetitions per workload")
	seconds := fs.Int("seconds", 0, "measure for about this long per workload instead of -reps")
	trace := fs.Int("trace", 1, "1: add the traced pass and the probes (per-layer metrics); 0: skip them")
	spans := fs.String("spans", "", "write the traced pass's spans to this file")
	out := fs.String("out", "", "write the full report to this file")
	compare := fs.Bool("compare", false, "compare two report files given as arguments instead of measuring")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two report files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || *seed == 0 || *reps < 1 || *seconds < 0 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(stderr, "bench: bad arguments (want -seed >= 1, -reps >= 1, -seconds >= 0, -trace 0|1)")
		return 2
	}

	o := &options{
		seed: *seed, reps: *reps, seconds: *seconds, trace: *trace == 1, spansPath: *spans,
		sizes: benchSizes(), log: stderr,
	}
	if *workloadName != "" {
		o.names = []string{*workloadName}
	} else {
		for _, w := range workloads(o.sizes) {
			o.names = append(o.names, w.name)
		}
	}
	rep, err := runBench(o)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if *out != "" {
		data, err := json.MarshalIndent(rep, "", " ")
		if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
	}

	status := 0
	for _, w := range rep.Workloads {
		for _, f := range w.Failures {
			fmt.Fprintf(stderr, "bench: %s: %s\n", w.Name, f)
		}
		if !w.Correct {
			status = 1
		}
	}
	var line interface{} = rep
	if *workloadName != "" {
		line = driverLine(rep.Workloads[0], o.trace)
	}
	data, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n", data)
	return status
}

// driverResult is the object the benchmark driver reads from the last line
// of standard output.
type driverResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func driverLine(w workloadReport, trace bool) driverResult {
	r := driverResult{Correct: w.Correct, Attempted: w.Attempted, Failed: w.Failed, Metrics: w.EndToEnd}
	if trace {
		r.Metrics = w.PerLayer
	}
	return r
}
