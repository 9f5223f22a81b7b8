package main

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"nicwarp"
	"nicwarp/internal/core"
	"nicwarp/internal/runner"
	"nicwarp/internal/timewarp"
)

// setupRounds is how many times set-up is repeated; setup_s is the median.
const setupRounds = 3

// minReps is the fewest timed repetitions -seconds may derive.
const minReps = 5

// sweepWorkers is the runner pool size of a sweep workload.
const sweepWorkers = 2

// options selects what one invocation measures.
type options struct {
	names     []string // workloads to run, in catalogue order
	seed      uint64
	reps      int // timed repetitions per workload, unless seconds is set
	seconds   int // > 0: derive the repetitions from this budget (see repsFor)
	trace     bool
	spansPath string // where the traced pass writes its spans; empty = nowhere
	sizes     sizes
	// tamper corrupts an oracle before it is used. Only bench_test.go sets
	// it, to prove that a wrong digest fails the run.
	tamper func(*oracle)
	log    io.Writer
}

// env records the machine and settings next to every number.
type env struct {
	NumCPU     int    `json:"numcpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// repSample is one timed repetition. Every repetition simulates under its
// own seed derived from -seed, so a run's medians average over Time Warp's
// seed-to-seed variation instead of reporting one draw of it.
type repSample struct {
	Seed      uint64  `json:"seed"`
	WallMs    float64 `json:"wall_ms"`
	Allocs    uint64  `json:"allocs"`
	Bytes     uint64  `json:"bytes"`
	ModeledMs float64 `json:"modeled_ms"`
	Committed int     `json:"committed"`
	Digest    string  `json:"digest"`
}

type workloadReport struct {
	Name      string                 `json:"name"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Failures  []string               `json:"failures,omitempty"`
	Reps      []repSample            `json:"reps"`
	WallQ1Ms  float64                `json:"wall_ms_q1"`
	WallQ3Ms  float64                `json:"wall_ms_q3"`
	EndToEnd  map[string]metricValue `json:"end_to_end"`
	PerLayer  map[string]metricValue `json:"per_layer,omitempty"`
}

type report struct {
	Env         env              `json:"env"`
	SetupS      float64          `json:"setup_s"`
	SetupRounds []float64        `json:"setup_rounds_s"`
	Workloads   []workloadReport `json:"workloads"`
}

// oracle is what the sequential reference commits for one repetition's
// inputs: the digests of its points folded in order, and their event total.
type oracle struct {
	digest uint64
	events int
}

const digestSeed = 0x243F6A8885A308D3

// oracleFor runs timewarp.Sequential over a fresh build of every point.
func oracleFor(jobs []runner.Job) oracle {
	o := oracle{digest: digestSeed}
	for _, j := range jobs {
		objs, _ := j.Config.App.Build(j.Config.Nodes, j.Config.Seed)
		ref := timewarp.Sequential(objs, 0)
		o.digest = timewarp.DigestMix(o.digest, ref.Digest)
		o.events += ref.TotalEvents
	}
	return o
}

// oracle is oracleFor plus the test-only corruption hook.
func (o *options) oracle(jobs []runner.Job) oracle {
	or := oracleFor(jobs)
	if o.tamper != nil {
		o.tamper(&or)
	}
	return or
}

// folded reduces a repetition's results the way oracleFor reduces the
// reference, plus the modeled execution time summed over points.
func folded(results []*core.Result) (o oracle, modeledMs float64) {
	o.digest = digestSeed
	for _, r := range results {
		o.digest = timewarp.DigestMix(o.digest, r.Digest)
		o.events += r.CommittedEvents
		modeledMs += float64(r.ExecTime) / 1e6
	}
	return o, modeledMs
}

// check compares what a repetition committed with its oracle.
func check(got, want oracle) error {
	if got.events != want.events {
		return fmt.Errorf("committed %d events, oracle %d", got.events, want.events)
	}
	if got.digest != want.digest {
		return fmt.Errorf("digest %016x, oracle %016x", got.digest, want.digest)
	}
	return nil
}

// splitmix64 is the generator behind every derived seed and probe input.
func splitmix64(x *uint64) uint64 {
	*x += 0x9E3779B97F4A7C15
	z := *x
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// subSeed derives repetition rep's simulation seed. Repetition 0 keeps the
// -seed value itself, so `-seed 1 -reps 1` is the plain Config{Seed: 1} run.
func subSeed(seed uint64, rep int) uint64 {
	if rep == 0 {
		return seed
	}
	x := seed ^ uint64(rep)*0xD1342543DE82EF95
	s := splitmix64(&x)
	if s == 0 {
		s = 1
	}
	return s
}

// execute runs one repetition of w over jobs: a runner sweep, or a single
// simulation through the root API.
func (w *workload) execute(jobs []runner.Job) ([]*core.Result, error) {
	if w.sweep {
		r := &runner.Runner{Workers: sweepWorkers, Retries: 0}
		results := make([]*core.Result, len(jobs))
		for i, res := range r.Run(jobs) {
			if res.Err != nil {
				return nil, fmt.Errorf("%s: %w", res.Job.Name, res.Err)
			}
			results[i] = res.Res
		}
		return results, nil
	}
	res, err := nicwarp.Run(jobs[0].Config, nicwarp.WithShards(w.shards))
	if err != nil {
		return nil, err
	}
	return []*core.Result{res}, nil
}

// timed is one measured call of execute.
type timed struct {
	wall    time.Duration
	allocs  uint64
	bytes   uint64
	results []*core.Result
	err     error
}

// measure times f on a quiesced heap; the collection is outside the timed
// region.
func measure(f func() ([]*core.Result, error)) timed {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	results, err := f()
	wall := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return timed{
		wall:    wall,
		allocs:  m1.Mallocs - m0.Mallocs,
		bytes:   m1.TotalAlloc - m0.TotalAlloc,
		results: results,
		err:     err,
	}
}

// state is one workload's progress through an invocation.
type state struct {
	w    *workload
	twin *workload
	reps int
	out  workloadReport
	// oracle0 and digest0 are repetition 0's reference and the digest its
	// warm-up committed: every later execution of seed 0 must reproduce it.
	oracle0 oracle
	digest0 uint64
}

func (s *state) attempt(err error, format string, args ...interface{}) {
	s.out.Attempted++
	if err != nil {
		s.out.Failed++
		s.out.Failures = append(s.out.Failures, fmt.Sprintf(format, args...)+": "+err.Error())
	}
}

// verify checks one execution against its oracle and returns its fold.
func verify(results []*core.Result, err error, want oracle) (oracle, float64, error) {
	if err != nil {
		return oracle{}, 0, err
	}
	got, modeledMs := folded(results)
	return got, modeledMs, check(got, want)
}

// setup is one set-up round: the sequential oracle for repetition 0 and one
// untimed warm-up execution, which must match it. A sharded workload also
// runs its serial twin, whose digest it must reproduce.
func (s *state) setup(o *options) {
	jobs := s.w.points(subSeed(o.seed, 0))
	s.oracle0 = o.oracle(jobs)
	results, err := s.w.execute(jobs)
	got, _, err := verify(results, err, s.oracle0)
	s.attempt(err, "warm-up")
	s.digest0 = got.digest
	if s.twin != nil {
		results, err := s.twin.execute(s.twin.points(subSeed(o.seed, 0)))
		tw, _, err := verify(results, err, s.oracle0)
		if err == nil && tw.digest != got.digest {
			err = fmt.Errorf("digest %016x, sharded run %016x", tw.digest, got.digest)
		}
		s.attempt(err, "serial twin %s", s.twin.name)
	}
}

// timedRep measures repetition i and verifies it after the clock stops.
func (s *state) timedRep(o *options, i int) {
	seed := subSeed(o.seed, i)
	jobs := s.w.points(seed)
	t := measure(func() ([]*core.Result, error) { return s.w.execute(jobs) })
	want := s.oracle0
	if i > 0 {
		want = o.oracle(jobs)
	}
	got, modeledMs, err := verify(t.results, t.err, want)
	if err == nil && i == 0 && got.digest != s.digest0 {
		err = fmt.Errorf("digest %016x differs from the warm-up's %016x on the same seed", got.digest, s.digest0)
	}
	s.attempt(err, "rep %d (seed %d)", i, seed)
	if err != nil {
		return
	}
	s.out.Reps = append(s.out.Reps, repSample{
		Seed:      seed,
		WallMs:    ms(t.wall),
		Allocs:    t.allocs,
		Bytes:     t.bytes,
		ModeledMs: modeledMs,
		Committed: got.events,
		Digest:    fmt.Sprintf("%016x", got.digest),
	})
}

// quartiles returns the first quartile, median and third quartile of v by
// linear interpolation between order statistics.
func quartiles(v []float64) (q1, q2, q3 float64) {
	if len(v) == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		x := p * float64(len(s)-1)
		i := int(x)
		if i+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[i] + (x-float64(i))*(s[i+1]-s[i])
	}
	return at(0.25), at(0.5), at(0.75)
}

func median(v []float64) float64 {
	_, m, _ := quartiles(v)
	return m
}

// column extracts one field of every repetition.
func column(reps []repSample, f func(repSample) float64) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = f(r)
	}
	return out
}

func wallMs(r repSample) float64 { return r.WallMs }

// repValue returns the per-repetition value of an end-to-end metric;
// -compare pairs these across two reports.
func repValue(name string) func(repSample) float64 {
	switch name {
	case "wall_ms_p50":
		return wallMs
	case "committed_events_per_s":
		return func(r repSample) float64 { return float64(r.Committed) / (r.WallMs / 1e3) }
	case "allocs_per_run":
		return func(r repSample) float64 { return float64(r.Allocs) }
	case "bytes_per_run":
		return func(r repSample) float64 { return float64(r.Bytes) }
	case "modeled_exec_ms":
		return func(r repSample) float64 { return r.ModeledMs }
	}
	return nil
}

// summarize fills the end-to-end metrics from the repetitions.
func (s *state) summarize(setupS float64) {
	r := &s.out
	r.EndToEnd = make(map[string]metricValue, len(endToEnd))
	for _, m := range endToEnd {
		v := setupS
		if f := repValue(m.Name); f != nil {
			v = median(column(r.Reps, f))
		}
		r.EndToEnd[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	r.WallQ1Ms, _, r.WallQ3Ms = quartiles(column(r.Reps, wallMs))
}

// repsFor converts the -seconds budget into a fixed repeat count, so that a
// seed fixes the inputs — the set of derived seeds — exactly, whatever the
// machine's speed.
func repsFor(o *options, w *workload) int {
	if o.seconds <= 0 {
		return o.reps
	}
	n := int(float64(o.seconds)/w.repSeconds + 0.5)
	if n < minReps {
		n = minReps
	}
	return n
}

// runBench measures the selected workloads. It returns an error only for a
// bad selection; failed repetitions are counted in the report.
func runBench(o *options) (*report, error) {
	maxprocs := runtime.NumCPU()
	if maxprocs > 2 {
		maxprocs = 2
	}
	runtime.GOMAXPROCS(maxprocs)

	all := workloads(o.sizes)
	byName := make(map[string]*workload, len(all))
	for i := range all {
		byName[all[i].name] = &all[i]
	}
	var states []*state
	for _, name := range o.names {
		w := byName[name]
		if w == nil {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
		s := &state{w: w, reps: repsFor(o, w)}
		s.out.Name = w.name
		if w.twin != "" {
			s.twin = byName[w.twin]
		}
		states = append(states, s)
	}

	rep := &report{Env: env{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: maxprocs, GoVersion: runtime.Version(),
		Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
	}}
	for round := 0; round < setupRounds; round++ {
		t0 := time.Now()
		for _, s := range states {
			s.setup(o)
		}
		rep.SetupRounds = append(rep.SetupRounds, time.Since(t0).Seconds())
		fmt.Fprintf(o.log, "set-up round %d: %.3fs\n", round, rep.SetupRounds[round])
	}
	rep.SetupS = median(rep.SetupRounds)

	// Repetitions are interleaved round-robin across workloads, so machine
	// drift spreads over all of them.
	for i, more := 0, true; more; i++ {
		more = false
		for _, s := range states {
			if i < s.reps {
				s.timedRep(o, i)
				more = true
			}
		}
	}
	for _, s := range states {
		s.summarize(rep.SetupS)
		fmt.Fprintf(o.log, "%-26s %d reps  wall_ms_p50 %.1f [%.1f, %.1f]  failed %d/%d\n",
			s.w.name, len(s.out.Reps), s.out.EndToEnd["wall_ms_p50"].Value,
			s.out.WallQ1Ms, s.out.WallQ3Ms, s.out.Failed, s.out.Attempted)
	}

	if o.trace {
		tr := newTracer()
		probes := runProbes(o.seed)
		for _, s := range states {
			s.tracedPass(o, tr, probes, states)
		}
		if o.spansPath != "" {
			if err := tr.write(o.spansPath); err != nil {
				return nil, fmt.Errorf("writing spans: %w", err)
			}
		}
	}
	for _, s := range states {
		s.out.Correct = s.out.Failed == 0 && len(s.out.Reps) > 0
		rep.Workloads = append(rep.Workloads, s.out)
	}
	return rep, nil
}
