// Package stress sweeps fault scenario × seed matrices over the cluster
// model and judges every point with the protocol-invariant oracles
// (internal/invariant): a point passes when its run completes, no oracle
// fires, and — for scenarios with loss-free semantics — its committed
// digest is byte-identical to the application's fault-free baseline.
//
// The sweep is a pure function of its Options: the same matrix produces the
// same Report bytes whether the points run serially, on a parallel pool, or
// replay out of a warm cache, because every point is a deterministic
// cluster run keyed by its core.Config digest. Failing points are shrunk —
// workload scale halved, then the cluster narrowed — to the smallest
// configuration that still fails, and the shrunken point is emitted as a
// one-line `go run ./cmd/stress` repro command.
package stress

import (
	"encoding/json"
	"fmt"

	"nicwarp/internal/apps/phold"
	"nicwarp/internal/apps/police"
	"nicwarp/internal/apps/raid"
	"nicwarp/internal/core"
	"nicwarp/internal/fault"
	"nicwarp/internal/nic"
	"nicwarp/internal/runner"
	"nicwarp/internal/simnet"
	"nicwarp/internal/vtime"
)

// Options selects the sweep matrix. The zero value sweeps every
// application and every non-hostile scenario over four seeds at the
// default cluster size.
type Options struct {
	// Apps is the application subset (see AppNames); empty means all.
	Apps []string
	// Scenarios is the fault-scenario subset (see fault.Scenarios and
	// fault.AllScenarios); empty means every non-hostile scenario.
	Scenarios []string
	// Seeds is the fault-seed axis; empty means 1..4.
	Seeds []uint64
	// Nodes is the cluster size; 0 means 4.
	Nodes int
	// Scale multiplies workload sizes; 0 means 1.
	Scale float64
	// GVT selects the GVT implementation for every point; the zero value
	// is core.GVTMode's, host Mattern. cmd/stress defaults its flag to the
	// paper's NIC ring GVT (core.GVTNIC).
	GVT core.GVTMode
	// Topology selects the interconnect model; the zero value is the
	// crossbar.
	Topology simnet.Topology
	// Batch, when > 1, enables NIC-side send batching (nic.Config.BatchMax)
	// with a small flush horizon for every point, crossing the fault plane
	// over batch frames: a dropped or duplicated frame must conserve
	// credits and leave only classifiable sequence holes, exactly like the
	// equivalent burst of solo packets. 0 or 1 leaves batching off.
	Batch int
	// Shards is the per-point shard count; 0 or 1 means serial. Execution
	// strategy only: every judgement (digests, oracles, baselines) is
	// identical at any value, so a sharded sweep crossing the fault plane
	// over shard boundaries is itself a protocol check.
	Shards int
	// Workers is the pool size; <= 0 means GOMAXPROCS.
	Workers int
	// Cache, when non-nil, serves repeat points by config digest.
	Cache runner.Cache
	// OnProgress, when non-nil, observes point completions.
	OnProgress func(runner.Progress)
	// Verify additionally runs the sequential oracle inside every point
	// (core.Config.VerifyOracle). The digest-vs-baseline comparison below
	// already catches committed-state divergence; Verify also pins the
	// committed event count and costs one sequential run per point.
	Verify bool
	// Shrink reduces each failing point to a minimal repro command.
	Shrink bool
}

func (o Options) withDefaults() Options {
	if len(o.Apps) == 0 {
		o.Apps = AppNames()
	}
	if len(o.Scenarios) == 0 {
		o.Scenarios = fault.Scenarios()
	}
	if len(o.Seeds) == 0 {
		o.Seeds = []uint64{1, 2, 3, 4}
	}
	if o.Nodes == 0 {
		o.Nodes = 4
	}
	if o.Scale == 0 {
		o.Scale = 1
	}
	return o
}

// AppNames returns the stress workload names, in sweep order.
func AppNames() []string { return []string{"phold", "raid", "police"} }

// buildApp constructs a stress workload at the given scale. The base sizes
// are deliberately small: a stress matrix multiplies them by scenarios ×
// seeds, and fault episodes bite just as well on short runs.
func buildApp(name string, scale float64) (core.App, error) {
	scaled := func(n int) int {
		v := int(float64(n) * scale)
		if v < 1 {
			v = 1
		}
		return v
	}
	switch name {
	case "phold":
		return phold.New(phold.Params{
			Objects: 16, Population: 1, Hops: scaled(60),
			MeanDelay: 40, Locality: 0.2,
		}), nil
	case "raid":
		return raid.New(raid.CancelConfig(scaled(400))), nil
	case "police":
		return police.New(police.DefaultConfig(scaled(48))), nil
	default:
		return nil, fmt.Errorf("stress: unknown app %q (valid: %v)", name, AppNames())
	}
}

// PointConfig builds the cluster configuration for one matrix point.
// Scenario "none" (or "") yields the application's fault-free baseline.
// The model seed is fixed: the fault seed is the swept axis, and holding
// the workload constant is what makes the digest comparison meaningful.
func PointConfig(app string, o Options, scenario string, seed uint64) (core.Config, error) {
	o = o.withDefaults()
	a, err := buildApp(app, o.Scale)
	if err != nil {
		return core.Config{}, err
	}
	plan, err := fault.PlanFor(scenario, seed)
	if err != nil {
		return core.Config{}, err
	}
	cfg := core.Config{
		App:             a,
		Nodes:           o.Nodes,
		Seed:            7,
		GVT:             o.GVT,
		GVTPeriod:       50,
		EarlyCancel:     true,
		VerifyOracle:    o.Verify,
		CheckInvariants: true,
		Fault:           plan,
		Net:             simnet.Config{Topology: o.Topology},
	}
	if o.Batch > 1 {
		cfg.NIC = nic.DefaultConfig()
		cfg.NIC.BatchMax = o.Batch
		cfg.NIC.FlushHorizon = 20 * vtime.Microsecond
	}
	// An option the cluster rejects (an unknown GVT mode, a batch above
	// proto.MaxBatchSubs) fails here, before any point runs.
	if err := cfg.WithDefaults().Validate(); err != nil {
		return core.Config{}, err
	}
	return cfg, nil
}

// Point is one judged matrix entry of a Report.
type Point struct {
	Name     string `json:"name"`
	App      string `json:"app"`
	Scenario string `json:"scenario"`
	Seed     uint64 `json:"seed"`
	// Key is the config digest the point is cached under.
	Key string `json:"key"`
	// Cached is execution-trivia (it differs between a cold and a warm
	// run of the same matrix), so it is excluded from the report bytes.
	Cached bool `json:"-"`
	Pass   bool `json:"pass"`
	// Error is the run error, when the cluster failed to quiesce cleanly.
	Error string `json:"error,omitempty"`
	// Digest is the committed-state digest; Baseline mirrors the
	// fault-free digest it was compared against (loss-free scenarios).
	Digest    string `json:"digest,omitempty"`
	Baseline  string `json:"baseline,omitempty"`
	Committed int    `json:"committed,omitempty"`
	Faults    int64  `json:"faults,omitempty"`
	// Violations lists the invariant-oracle findings, in detection order.
	Violations []string `json:"violations,omitempty"`
	// Repro is the minimal single-line reproduction for a failing point.
	Repro string `json:"repro,omitempty"`
}

// Report is the sweep outcome, serialized as the JSON artifact cmd/stress
// and CI publish.
type Report struct {
	Apps      []string `json:"apps"`
	Scenarios []string `json:"scenarios"`
	Seeds     []uint64 `json:"seeds"`
	Nodes     int      `json:"nodes"`
	Scale     float64  `json:"scale"`
	GVT       string   `json:"gvt"`
	Topology  string   `json:"topology"`
	Batch     int      `json:"batch,omitempty"`
	Points    []Point  `json:"points"`
	Failures  int      `json:"failures"`
}

// JSON renders the report deterministically.
func (r *Report) JSON() ([]byte, error) {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// Sweep runs the full matrix and judges every point. Per-point failures
// land in the report; only a malformed Options (unknown app or scenario,
// or a configuration core.Config.Validate rejects) errors out.
func Sweep(o Options) (*Report, error) {
	o = o.withDefaults()
	type slot struct {
		app, scenario string
		seed          uint64
		baseline      bool
	}
	var (
		jobs  []runner.Job
		slots []slot
	)
	for _, app := range o.Apps {
		cfg, err := PointConfig(app, o, "none", 0)
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, runner.Job{Name: app + "/none", Config: cfg})
		slots = append(slots, slot{app: app, scenario: "none", baseline: true})
		for _, sc := range o.Scenarios {
			for _, seed := range o.Seeds {
				cfg, err := PointConfig(app, o, sc, seed)
				if err != nil {
					return nil, err
				}
				jobs = append(jobs, runner.Job{
					Name:   fmt.Sprintf("%s/%s/seed=%d", app, sc, seed),
					Config: cfg,
				})
				slots = append(slots, slot{app: app, scenario: sc, seed: seed})
			}
		}
	}

	pool := &runner.Runner{Workers: o.Workers, Cache: o.Cache, OnProgress: o.OnProgress,
		Exec: core.Exec{Shards: o.Shards}}
	results := pool.Run(jobs)

	rep := &Report{
		Apps: o.Apps, Scenarios: o.Scenarios, Seeds: o.Seeds,
		Nodes: o.Nodes, Scale: o.Scale,
		GVT: o.GVT.String(), Topology: o.Topology.String(), Batch: o.Batch,
	}
	baseline := "" // fault-free digest of the current app, in slot order
	for i, res := range results {
		s := slots[i]
		p := judge(res, s.app, s.scenario, s.seed, baseline)
		if s.baseline {
			baseline = p.Digest
		}
		if !p.Pass {
			rep.Failures++
			if o.Shrink {
				p.Repro = o.shrink(s.app, s.scenario, s.seed)
			}
		}
		rep.Points = append(rep.Points, p)
	}
	return rep, nil
}

// judge converts one runner result into a judged point. A point fails on a
// run error, on any invariant-oracle violation, or — for scenarios whose
// faults keep loss-free semantics — on a committed digest differing from
// the application's fault-free baseline.
func judge(res runner.Result, app, scenario string, seed uint64, baseline string) Point {
	p := Point{
		Name: res.Job.Name, App: app, Scenario: scenario, Seed: seed,
		Key: res.Key, Cached: res.Cached,
	}
	if res.Err != nil {
		p.Error = res.Err.Error()
		return p
	}
	r := res.Res
	p.Digest = fmt.Sprintf("%016x", r.Digest)
	p.Committed = r.CommittedEvents
	p.Faults = r.FaultsInjected
	if rep := r.Invariants; rep != nil {
		for _, v := range rep.Violations {
			p.Violations = append(p.Violations, fmt.Sprintf("%s@node%d: %s", v.Rule, v.Node, v.Detail))
		}
		if extra := rep.ViolationsTotal - int64(len(rep.Violations)); extra > 0 {
			p.Violations = append(p.Violations, fmt.Sprintf("... %d more", extra))
		}
	}
	if len(p.Violations) > 0 {
		return p
	}
	if lossFree(scenario) && baseline != "" {
		p.Baseline = baseline
		if p.Digest != baseline {
			return p
		}
	}
	p.Pass = true
	return p
}

// lossFree reports whether the scenario's faults preserve loss-free
// semantics, i.e. whether its committed digest must match the fault-free
// baseline. Hostile scenarios (true loss, skewed reports) and the baseline
// itself are exempt.
func lossFree(scenario string) bool {
	if scenario == "" || scenario == "none" {
		return false
	}
	plan, err := fault.PlanFor(scenario, 1)
	return err == nil && !plan.Hostile()
}

// minShrinkScale bounds the workload-halving descent: below this the
// workloads degenerate to single events and stop exercising anything.
const minShrinkScale = 0.05

// shrink reduces a failing point to the smallest configuration that still
// fails — workload scale halved while the failure persists, then the
// cluster halved — and returns the one-line repro command for it. Every
// trial is a full deterministic re-run, so the command is guaranteed to
// reproduce the failure.
func (o Options) shrink(app, scenario string, seed uint64) string {
	cur := o.withDefaults()
	cur.Shrink = false
	for cand := cur.Scale / 2; cand >= minShrinkScale; cand /= 2 {
		trial := cur
		trial.Scale = cand
		if !trial.pointFails(app, scenario, seed) {
			break
		}
		cur = trial
	}
	for cand := cur.Nodes / 2; cand >= 2; cand /= 2 {
		trial := cur
		trial.Nodes = cand
		if !trial.pointFails(app, scenario, seed) {
			break
		}
		cur = trial
	}
	return cur.Repro(app, scenario, seed)
}

// pointFails re-runs one candidate point (and, for loss-free scenarios,
// its fault-free baseline at the same size) and reports whether the
// failure is still present.
func (o Options) pointFails(app, scenario string, seed uint64) bool {
	cfg, err := PointConfig(app, o, scenario, seed)
	if err != nil {
		return false // malformed candidate: not evidence of the failure
	}
	pool := &runner.Runner{Workers: 1, Retries: 0, Cache: o.Cache,
		Exec: core.Exec{Shards: o.Shards}}
	res := pool.Run([]runner.Job{{Name: "shrink", Config: cfg}})[0]
	baseline := ""
	if lossFree(scenario) {
		bcfg, err := PointConfig(app, o, "none", 0)
		if err != nil {
			return false
		}
		base := pool.Run([]runner.Job{{Name: "shrink-base", Config: bcfg}})[0]
		if base.Err != nil || base.Res == nil {
			return false // baseline itself broken: cannot attribute to the fault
		}
		baseline = fmt.Sprintf("%016x", base.Res.Digest)
	}
	return !judge(res, app, scenario, seed, baseline).Pass
}

// Repro formats the single-line reproduction command for a point,
// including the GVT mode and topology when they differ from the sweep
// defaults (the repro must rebuild the exact failing config).
func (o Options) Repro(app, scenario string, seed uint64) string {
	o = o.withDefaults()
	cmd := fmt.Sprintf("go run ./cmd/stress -apps %s -scenarios %s -seeds %d -nodes %d -scale %g",
		app, scenario, seed, o.Nodes, o.Scale)
	if o.GVT != core.GVTNIC {
		cmd += fmt.Sprintf(" -gvt %v", o.GVT)
	}
	if o.Topology != simnet.TopoCrossbar {
		cmd += fmt.Sprintf(" -topo %v", o.Topology)
	}
	if o.Batch > 1 {
		cmd += fmt.Sprintf(" -batch %d", o.Batch)
	}
	return cmd
}
