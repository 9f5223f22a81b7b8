package core

import (
	"reflect"
	"testing"

	"nicwarp/internal/fault"
)

// faultConfig is a workload heavy enough that every scenario's faults
// actually bite: early cancellation for NIC drops, NIC-GVT for control
// traffic, enough hops for sustained cross-node chatter.
func faultConfig(scenario string, seed uint64) Config {
	cfg := Config{
		App:             pholdApp(16, 60),
		Nodes:           4,
		Seed:            7,
		GVT:             GVTNIC,
		GVTPeriod:       50,
		EarlyCancel:     true,
		VerifyOracle:    true,
		CheckInvariants: true,
	}
	plan, err := fault.PlanFor(scenario, seed)
	if err != nil {
		panic(err)
	}
	cfg.Fault = plan
	return cfg
}

// TestFaultFreeInvariantsHold wires the oracles into a clean run: nothing
// may be flagged, and the checker must have actually seen traffic.
func TestFaultFreeInvariantsHold(t *testing.T) {
	res := mustRun(t, faultConfig("none", 0))
	rep := res.Invariants
	if rep == nil || !rep.Checked {
		t.Fatal("no invariant report attached")
	}
	if rep.ViolationsTotal > 0 {
		t.Fatalf("fault-free run violated invariants: %+v", rep.Violations)
	}
	if rep.Sent == 0 || rep.Delivered == 0 || rep.GVTCommits == 0 {
		t.Fatalf("oracles saw no traffic: %+v", rep)
	}
	if rep.Sent != rep.Delivered+rep.Discarded {
		t.Fatalf("conservation mismatch: sent %d != delivered %d + discarded %d",
			rep.Sent, rep.Delivered, rep.Discarded)
	}
}

// TestFaultScenariosPreserveResults runs every non-hostile scenario under
// the sequential oracle and the invariant oracles: wire chaos that keeps
// loss-free semantics must leave committed results byte-identical to the
// fault-free run, with no invariant violations.
func TestFaultScenariosPreserveResults(t *testing.T) {
	baseline := mustRun(t, faultConfig("none", 0))
	for _, scenario := range fault.Scenarios() {
		t.Run(scenario, func(t *testing.T) {
			res := mustRun(t, faultConfig(scenario, 99))
			if res.Invariants.ViolationsTotal > 0 {
				t.Fatalf("invariants violated: %+v", res.Invariants.Violations)
			}
			if res.FaultsInjected == 0 {
				t.Fatalf("scenario %q injected nothing on this workload", scenario)
			}
			if res.Digest != baseline.Digest || res.CommittedEvents != baseline.CommittedEvents {
				t.Fatalf("committed results diverged from fault-free run: digest %x (want %x), events %d (want %d)",
					res.Digest, baseline.Digest, res.CommittedEvents, baseline.CommittedEvents)
			}
		})
	}
}

// TestFaultReplayIsByteIdentical runs the same plan + seed twice and
// requires identical invariant reports and fault counters, the property
// the stress harness's shrinking and the runner cache rely on.
func TestFaultReplayIsByteIdentical(t *testing.T) {
	a := mustRun(t, faultConfig("chaos", 42))
	b := mustRun(t, faultConfig("chaos", 42))
	if a.Digest != b.Digest || a.CommittedEvents != b.CommittedEvents {
		t.Fatalf("replay diverged: digest %x vs %x", a.Digest, b.Digest)
	}
	if !reflect.DeepEqual(a.Invariants, b.Invariants) {
		t.Fatalf("invariant reports differ across replays:\n%+v\n%+v", a.Invariants, b.Invariants)
	}
	if a.FaultsInjected != b.FaultsInjected || a.BIPDuplicates != b.BIPDuplicates ||
		a.BIPLateFilled != b.BIPLateFilled {
		t.Fatalf("fault accounting differs across replays: %d/%d/%d vs %d/%d/%d",
			a.FaultsInjected, a.BIPDuplicates, a.BIPLateFilled,
			b.FaultsInjected, b.BIPDuplicates, b.BIPLateFilled)
	}
	// A different fault seed must change the schedule (else the seed is
	// not actually wired through).
	c := mustRun(t, faultConfig("chaos", 43))
	if c.FaultsInjected == a.FaultsInjected && reflect.DeepEqual(a.Invariants, c.Invariants) &&
		c.ExecTime == a.ExecTime {
		t.Fatalf("changing the fault seed changed nothing")
	}
}

// TestSkewGVTCaughtByOracle proves the oracle detects a deliberately
// broken invariant: the skewgvt scenario corrupts only the GVT value
// reported to the checker, so the run itself stays sound while the
// gvt-safety rule must fire — with the same report at every shard count.
func TestSkewGVTCaughtByOracle(t *testing.T) {
	var ref *Result
	for _, shards := range []int{1, 2, 4} {
		cl, err := NewClusterExec(faultConfig("skewgvt", 1), Exec{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		res, err := cl.Run()
		if err != nil {
			t.Fatalf("shards=%d: skewgvt must not break the run itself: %v", shards, err)
		}
		rep := res.Invariants
		if rep.ViolationsTotal == 0 {
			t.Fatalf("shards=%d: skewed GVT reports were not flagged", shards)
		}
		found := false
		for _, v := range rep.Violations {
			if v.Rule == "gvt-safety" {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("shards=%d: expected a gvt-safety violation, got %+v", shards, rep.Violations)
		}
		if ref == nil {
			ref = res
		} else if !reflect.DeepEqual(rep, ref.Invariants) {
			t.Fatalf("shards=%d: invariant report differs from serial:\n%+v\nvs\n%+v", shards, rep, ref.Invariants)
		}
	}
}

// TestRingStressBackpressures asserts the ring-exhaustion scenario
// actually exercised the NIC paths (holds or stalls happened) and still
// converged correctly.
func TestRingStressBackpressures(t *testing.T) {
	res := mustRun(t, faultConfig("ringstress", 5))
	if res.FaultsInjected == 0 {
		t.Fatal("ringstress never held a slot or stalled a pump")
	}
	if res.Invariants.ViolationsTotal > 0 {
		t.Fatalf("ringstress violated invariants: %+v", res.Invariants.Violations)
	}
}
