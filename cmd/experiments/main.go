// Command experiments regenerates every table and figure of the paper's
// evaluation section, plus the ablation studies listed in DESIGN.md, and
// writes them as aligned text tables (and CSV) under -out.
//
//	experiments -out results -scale 1.0 -j 8 -cache
//
// Experiment points run on a parallel worker pool (-j, default all cores)
// with deterministic aggregation: the tables are byte-identical to a serial
// run (-j 1) of the same suite. With -cache, results persist under
// <out>/cache keyed on the configuration digest, so re-running a suite
// after editing one experiment re-executes only the changed points.
//
// Individual experiments are selected with -only (comma-separated registry
// names; -list prints them). Unknown names are an error, not a silent
// no-op. The alias "ablations" selects every abl-* experiment.
//
// -cpuprofile/-memprofile capture pprof profiles of whatever runs. Speed
// numbers — producing, storing, comparing and gating them — belong to
// cmd/bench alone.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"nicwarp"
	"nicwarp/internal/cliopt"
	"nicwarp/internal/runner"
	"nicwarp/internal/stats"
)

func main() {
	// Pin GOMAXPROCS up to the machine's CPU count before the -j default is
	// computed: CI runners hand out cgroup-limited defaults that leave the
	// worker pool short of the cores it could use. An explicit higher
	// GOMAXPROCS from the environment is left alone.
	if runtime.GOMAXPROCS(0) < runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}

	var (
		out     = flag.String("out", "results", "output directory")
		scale   = flag.Float64("scale", 1.0, "workload scale relative to the paper")
		seed    = flag.Uint64("seed", 1, "experiment seed")
		nodes   = flag.Int("nodes", 8, "cluster size")
		only    = flag.String("only", "", "comma-separated experiment subset (see -list); alias: ablations")
		topo    = cliopt.Topology(flag.CommandLine)
		shards  = cliopt.Shards(flag.CommandLine)
		workers = flag.Int("j", runtime.GOMAXPROCS(0), "parallel experiment points (1 = serial)")
		cache   = flag.Bool("cache", false, "persist results under <out>/cache keyed on config digest")
		cpuprof = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprof = flag.String("memprofile", "", "write a heap profile to this file on exit")
		list    = flag.Bool("list", false, "list registered experiments and exit")
	)
	flag.Parse()

	if *list {
		for _, e := range nicwarp.Experiments() {
			fmt.Printf("%-24s %s\n", e.Name, e.Description)
		}
		return
	}

	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	defer writeMemProfile(*memprof)

	selected, err := selectExperiments(*only)
	if err != nil {
		fatal(err)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	opts := nicwarp.FigureOpts{Nodes: *nodes, Seed: *seed, Scale: *scale, Topology: *topo}

	// Expand every selected experiment into one flat batch so small
	// ablations ride along with the big sweeps and the pool never idles;
	// experiment i owns jobs[bounds[i]:bounds[i+1]].
	var jobs []runner.Job
	bounds := []int{0}
	for _, exp := range selected {
		jobs = append(jobs, exp.Jobs(opts)...)
		bounds = append(bounds, len(jobs))
	}
	fmt.Printf("%d experiments, %d points, %d workers, topo=%v, %d nodes, seed %d\n",
		len(selected), len(jobs), *workers, opts.Topology, opts.Nodes, opts.Seed)

	var c runner.Cache = runner.NewMemCache()
	if *cache {
		dc, err := runner.NewDiskCache(filepath.Join(*out, "cache"))
		if err != nil {
			fatal(err)
		}
		fmt.Println("cache:", dc.Dir())
		c = dc
	}
	pool := &runner.Runner{Workers: *workers, Cache: c, OnProgress: progressPrinter(),
		Exec: nicwarp.Exec{Shards: *shards}}
	results := pool.Run(jobs)

	failed := 0
	for i, exp := range selected {
		step(exp.Description)
		tbl, err := exp.Render(opts, results[bounds[i]:bounds[i+1]])
		if err != nil {
			failed++
			fmt.Fprintln(os.Stderr, "experiments:", exp.Name+":", err)
			continue
		}
		write(*out, exp.Output, tbl)
	}
	if n := runner.CachedCount(results); n > 0 {
		fmt.Printf("%d of %d points served from cache\n", n, len(results))
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "experiments: %d experiment(s) failed\n", failed)
		os.Exit(1)
	}
	fmt.Println("done")
}

// selectExperiments resolves the -only flag against the registry. An empty
// selection means the full suite; unknown names error out listing the valid
// ones (previously `-only fig9` ran nothing and exited 0).
func selectExperiments(only string) ([]nicwarp.Experiment, error) {
	if strings.TrimSpace(only) == "" {
		return nicwarp.Experiments(), nil
	}
	var names []string
	for _, s := range strings.Split(only, ",") {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		if s == "ablations" {
			names = append(names, nicwarp.AblationNames()...)
			continue
		}
		names = append(names, s)
	}
	seen := map[string]bool{}
	var exps []nicwarp.Experiment
	for _, name := range names {
		if seen[name] {
			continue
		}
		seen[name] = true
		exp, err := nicwarp.ExperimentByName(name)
		if err != nil {
			return nil, err
		}
		exps = append(exps, exp)
	}
	return exps, nil
}

// progressPrinter renders per-point progress with a wall-clock ETA. The
// clock stays in this package: internal/runner is deterministic code under
// the nicwarp-vet walltime rule and only reports counts.
func progressPrinter() func(runner.Progress) {
	start := time.Now()
	return func(p runner.Progress) {
		status := ""
		switch {
		case p.Err != nil:
			status = " FAILED: " + p.Err.Error()
		case p.Cached:
			status = " (cached)"
		}
		elapsed := time.Since(start)
		eta := ""
		if p.Done > 0 && p.Done < p.Total {
			remaining := time.Duration(float64(elapsed) / float64(p.Done) * float64(p.Total-p.Done))
			eta = fmt.Sprintf("  eta %s", remaining.Round(time.Second))
		}
		fmt.Printf("[%3d/%3d %7.1fs]%s %s%s\n",
			p.Done, p.Total, elapsed.Seconds(), eta, p.Name, status)
	}
}

// writeMemProfile captures the post-GC heap when -memprofile was given.
func writeMemProfile(path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		fatal(err)
	}
	f.Close()
	fmt.Println("wrote heap profile to", path)
}

var started = time.Now()

func step(msg string) {
	fmt.Printf("[%8.1fs] %s\n", time.Since(started).Seconds(), msg)
}

func write(dir, name string, t *stats.Table) {
	txt := filepath.Join(dir, name+".txt")
	if err := os.WriteFile(txt, []byte(t.String()), 0o644); err != nil {
		fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, name+".csv"), []byte(t.CSV()), 0o644); err != nil {
		fatal(err)
	}
	fmt.Print(t.String())
	fmt.Println("wrote", txt)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
