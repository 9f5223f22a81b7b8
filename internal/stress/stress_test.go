package stress

import (
	"strconv"
	"strings"
	"testing"

	"nicwarp/internal/core"
	"nicwarp/internal/runner"
)

// smallOptions is a matrix small enough for unit tests: one workload, one
// loss-free scenario, the deliberately broken skewgvt hook, two seeds.
func smallOptions() Options {
	return Options{
		Apps:      []string{"phold"},
		Scenarios: []string{"drop", "skewgvt"},
		Seeds:     []uint64{1, 2},
		GVT:       core.GVTNIC,
		Shrink:    true,
	}
}

// TestSweepDeterministicAcrossExecutors requires byte-identical reports
// from a serial run, a parallel run, and a cache-warm replay of the same
// matrix — the property the shrinker's repro commands and CI's artifact
// diffing rely on.
func TestSweepDeterministicAcrossExecutors(t *testing.T) {
	render := func(o Options) string {
		t.Helper()
		rep, err := Sweep(o)
		if err != nil {
			t.Fatal(err)
		}
		data, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}

	serial := smallOptions()
	serial.Workers = 1
	parallel := smallOptions()
	parallel.Workers = 4
	warm := smallOptions()
	warm.Workers = 4
	warm.Cache = runner.NewMemCache()

	serialJSON := render(serial)
	if got := render(parallel); got != serialJSON {
		t.Fatalf("parallel report differs from serial:\n%s\nvs\n%s", got, serialJSON)
	}
	cold := render(warm)
	if cold != serialJSON {
		t.Fatalf("cache-cold report differs from serial")
	}
	if got := render(warm); got != serialJSON {
		t.Fatalf("cache-warm report differs from serial:\n%s\nvs\n%s", got, serialJSON)
	}
}

// TestSweepCatchesAndShrinksSkewGVT proves the end-to-end failure path:
// the deliberately broken gvt-safety hook must be flagged by the oracle,
// and the point must shrink to a runnable one-line repro command.
func TestSweepCatchesAndShrinksSkewGVT(t *testing.T) {
	rep, err := Sweep(smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failures == 0 {
		t.Fatal("skewgvt points were not flagged")
	}
	for _, p := range rep.Points {
		switch p.Scenario {
		case "none":
			if !p.Pass {
				t.Errorf("baseline failed: %+v", p)
			}
		case "drop":
			if !p.Pass {
				t.Errorf("drop/seed=%d failed: %+v", p.Seed, p)
			}
			if p.Baseline == "" || p.Digest != p.Baseline {
				t.Errorf("drop/seed=%d digest %q not compared equal to baseline %q",
					p.Seed, p.Digest, p.Baseline)
			}
			if p.Faults == 0 {
				t.Errorf("drop/seed=%d injected nothing", p.Seed)
			}
		case "skewgvt":
			if p.Pass {
				t.Errorf("skewgvt/seed=%d passed; the oracle missed the broken invariant", p.Seed)
			}
			found := false
			for _, v := range p.Violations {
				if strings.HasPrefix(v, "gvt-safety@") {
					found = true
				}
			}
			if !found {
				t.Errorf("skewgvt/seed=%d: no gvt-safety violation in %v", p.Seed, p.Violations)
			}
			if !strings.HasPrefix(p.Repro, "go run ./cmd/stress ") {
				t.Errorf("skewgvt/seed=%d: no repro command (got %q)", p.Seed, p.Repro)
			}
		}
	}
	// The shrunken repro must itself still fail: shrinking only keeps
	// candidates it re-ran and saw fail, so re-judging the first failing
	// point's command arguments reproduces the failure.
	for _, p := range rep.Points {
		if p.Repro == "" {
			continue
		}
		o := smallOptions()
		o.Shrink = false
		var nodes int
		var scale float64
		args := strings.Fields(p.Repro)
		for i := 0; i+1 < len(args); i++ {
			switch args[i] {
			case "-nodes":
				nodes = atoiOrFail(t, args[i+1])
			case "-scale":
				scale = atofOrFail(t, args[i+1])
			}
		}
		o.Nodes, o.Scale = nodes, scale
		if !o.pointFails(p.App, p.Scenario, p.Seed) {
			t.Fatalf("shrunken repro %q does not reproduce the failure", p.Repro)
		}
		break
	}
}

// TestPointConfigRejectsUnknownAxes pins the error paths the CLI relies on
// to turn typos into messages instead of empty sweeps.
func TestPointConfigRejectsUnknownAxes(t *testing.T) {
	if _, err := PointConfig("nosuchapp", Options{}, "drop", 1); err == nil {
		t.Fatal("unknown app accepted")
	}
	if _, err := PointConfig("phold", Options{}, "nosuchscenario", 1); err == nil {
		t.Fatal("unknown scenario accepted")
	}
	if _, err := Sweep(Options{Apps: []string{"phold"}, Scenarios: []string{"bogus"}}); err == nil {
		t.Fatal("sweep with unknown scenario accepted")
	}
}

// TestHostMatternSelectable: the zero GVT mode is host Mattern, in every
// point config and in the report, not a stand-in for NIC GVT.
func TestHostMatternSelectable(t *testing.T) {
	o := Options{
		Apps:      []string{"phold"},
		Scenarios: []string{"drop"},
		Seeds:     []uint64{1},
		GVT:       core.GVTHostMattern,
		Workers:   2,
	}
	cfg, err := PointConfig("phold", o, "drop", 1)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.GVT != core.GVTHostMattern {
		t.Fatalf("point config runs %v, want mattern", cfg.GVT)
	}
	rep, err := Sweep(o)
	if err != nil {
		t.Fatal(err)
	}
	if rep.GVT != "mattern" {
		t.Fatalf("report says gvt %q, want mattern", rep.GVT)
	}
	if rep.Failures != 0 {
		t.Fatalf("%d failures: %+v", rep.Failures, rep.Points)
	}
}

func atoiOrFail(t *testing.T, s string) int {
	t.Helper()
	n, err := strconv.Atoi(s)
	if err != nil {
		t.Fatalf("bad int %q: %v", s, err)
	}
	return n
}

func atofOrFail(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("bad float %q: %v", s, err)
	}
	return v
}

// TestSweepShardedMatchesSerial crosses the fault plane with the shard
// plane: a sweep over every loss-free wire scenario, executed at 2 and 3
// shards (3 leaves the 4-node cluster unevenly partitioned), must produce
// a byte-identical report to the serial sweep — same digests, same oracle
// verdicts, same baselines. The hostile skewgvt hook is deliberately
// absent: its gvt-safety oracle is a serial-only instantaneous check (see
// invariant.Checker.SetSharded).
func TestSweepShardedMatchesSerial(t *testing.T) {
	base := Options{
		Apps:      []string{"phold"},
		Scenarios: []string{"drop", "dup", "chaos"},
		Seeds:     []uint64{1, 2},
		GVT:       core.GVTNIC,
		Workers:   2,
	}
	render := func(o Options) string {
		t.Helper()
		rep, err := Sweep(o)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Failures != 0 {
			for _, p := range rep.Points {
				if !p.Pass {
					t.Errorf("shards=%d: point %s failed: %s %v", o.Shards, p.Name, p.Error, p.Violations)
				}
			}
			t.Fatalf("shards=%d: %d failures", o.Shards, rep.Failures)
		}
		data, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	serialJSON := render(base)
	for _, shards := range []int{2, 3} {
		o := base
		o.Shards = shards
		if got := render(o); got != serialJSON {
			t.Fatalf("shards=%d report differs from serial:\n%s\nvs\n%s", shards, got, serialJSON)
		}
	}
}

// TestSweepBatchedUnderFaultPlane crosses the fault plane with NIC send
// batching: with Batch set, frames — not solo packets — are what the wire
// scenarios drop and duplicate, and every loss-free point must still match
// its (equally batched) fault-free baseline with no oracle findings. A
// duplicated frame must classify every sub-message as a wire duplicate; a
// dropped frame must leave only the sequence holes the tolerant BIP engine
// already classifies — exactly like the burst of solo packets it replaced.
func TestSweepBatchedUnderFaultPlane(t *testing.T) {
	o := Options{
		Apps:      []string{"phold", "raid"},
		Scenarios: []string{"drop", "dup", "chaos"},
		Seeds:     []uint64{1, 2},
		GVT:       core.GVTNIC,
		Batch:     8,
		Workers:   2,
	}
	rep, err := Sweep(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range rep.Points {
		if !p.Pass {
			t.Errorf("point %s failed: %s %v", p.Name, p.Error, p.Violations)
		}
	}
	if rep.Failures != 0 {
		t.Fatalf("%d failures in the batched sweep", rep.Failures)
	}
	if rep.Batch != 8 {
		t.Fatalf("report does not record the batch axis: %d", rep.Batch)
	}
	// The points must actually have exercised batching: re-run one faulted
	// point directly and check frames formed.
	cfg, err := PointConfig("phold", o, "drop", 1)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := core.NewClusterExec(cfg, core.Exec{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.BatchFrames == 0 {
		t.Fatal("batched stress point assembled no frames")
	}
}
