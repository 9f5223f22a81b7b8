package nicwarp

import (
	"testing"

	"nicwarp/internal/core"
	"nicwarp/internal/simnet"
	"nicwarp/internal/stress"
	"nicwarp/internal/vtime"
)

// treeTestConfig is a small PHOLD cluster configuration for the tree-GVT
// property tests: big enough to roll back and keep tokens in flight,
// small enough for -race.
func treeTestConfig(nodes int, mode GVTMode, net simnet.Config) Config {
	return Config{
		App:       PHOLD(PHOLDParams{Objects: 2 * nodes, Population: 1, Hops: 25, MeanDelay: 40, Locality: 0.2}),
		Nodes:     nodes,
		Seed:      11,
		GVT:       mode,
		GVTPeriod: 50,
		Net:       net,
	}
}

// TestTreeCommitsRespectSerialOracle is the tree-GVT safety property: every
// committed GVT must lower-bound the true min(LVT, in-transit min) the
// serial invariant oracle tracks, and the committed state must match the
// sequential oracle exactly. A single unsafe commit (a tree round that
// missed an in-transit white message) trips the gvt-safety oracle; a wrong
// rollback trips the digest comparison.
func TestTreeCommitsRespectSerialOracle(t *testing.T) {
	for _, tc := range []struct {
		name  string
		nodes int
		net   simnet.Config
	}{
		{"crossbar/8", 8, simnet.Config{}},
		{"fattree/16", 16, simnet.Config{Topology: simnet.TopoFatTree}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := treeTestConfig(tc.nodes, GVTNICTree, tc.net)
			cfg.VerifyOracle = true
			cfg.CheckInvariants = true
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if rep := res.Invariants; rep != nil && len(rep.Violations) > 0 {
				t.Fatalf("invariant violations: %v", rep.Violations)
			}
			if !res.FinalGVT.IsInf() {
				t.Fatalf("final GVT = %v, want inf (all events committed)", res.FinalGVT)
			}
			if res.GVTConvCount == 0 {
				t.Fatal("no convergence samples recorded at the root")
			}
			if res.GVTConvAvg() <= 0 || res.GVTConvMax < res.GVTConvAvg() {
				t.Fatalf("convergence stats inconsistent: avg %v, max %v",
					res.GVTConvAvg(), res.GVTConvMax)
			}
		})
	}
}

// TestTreeDigestMatchesRing asserts the ring and tree reductions commit
// the same simulation: identical committed digests and event counts on
// every topology and on both figure workload families. GVT timing differs
// between the modes (different rounds, different control traffic), but
// committed state is timing-independent — that is the Time Warp
// correctness contract the two reductions must share.
func TestTreeDigestMatchesRing(t *testing.T) {
	cases := []struct {
		name string
		cfg  func(GVTMode) Config
	}{
		{"phold/crossbar/8", func(m GVTMode) Config { return treeTestConfig(8, m, simnet.Config{}) }},
		{"phold/fattree/16", func(m GVTMode) Config { return treeTestConfig(16, m, simnet.Config{Topology: simnet.TopoFatTree}) }},
		{"raid/fattree/8", func(m GVTMode) Config {
			return Config{
				App:   RAID(RAIDGVTConfig(400)),
				Nodes: 8, Seed: 1, GVT: m, GVTPeriod: 50,
				Net: simnet.Config{Topology: simnet.TopoFatTree},
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ring, err := Run(tc.cfg(GVTNIC))
			if err != nil {
				t.Fatal(err)
			}
			tree, err := Run(tc.cfg(GVTNICTree))
			if err != nil {
				t.Fatal(err)
			}
			if ring.Digest != tree.Digest {
				t.Errorf("digest mismatch: ring %016x, tree %016x", ring.Digest, tree.Digest)
			}
			if ring.CommittedEvents != tree.CommittedEvents {
				t.Errorf("committed events: ring %d, tree %d", ring.CommittedEvents, tree.CommittedEvents)
			}
		})
	}
}

// TestTreeShardedMatchesSerial asserts sharded execution stays pure
// strategy at large-N: the 64-node fat-tree tree-GVT run commits the same
// digest serially and at four shards.
func TestTreeShardedMatchesSerial(t *testing.T) {
	cfg := treeTestConfig(64, GVTNICTree, simnet.Config{Topology: simnet.TopoFatTree})
	serial, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := Run(cfg, WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	if serial.Digest != sharded.Digest {
		t.Fatalf("sharded digest %016x differs from serial %016x", sharded.Digest, serial.Digest)
	}
	if serial.CommittedEvents != sharded.CommittedEvents {
		t.Fatalf("sharded committed %d, serial %d", sharded.CommittedEvents, serial.CommittedEvents)
	}
}

// TestTreeGVTUnderFaults runs the stress matrix with the tree reduction on
// the fat tree: wire chaos (delays, duplicates, reordering) may stretch a
// reduction round but must never wedge it or let an unsafe value commit —
// every point must pass the invariant oracles and match the fault-free
// digest.
func TestTreeGVTUnderFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("fault-plane sweep")
	}
	rep, err := stress.Sweep(stress.Options{
		Apps:      []string{"phold"},
		Scenarios: []string{"drop", "dup", "chaos"},
		Seeds:     []uint64{1, 2},
		Nodes:     8,
		GVT:       core.GVTNICTree,
		Topology:  simnet.TopoFatTree,
		Workers:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failures > 0 {
		for _, p := range rep.Points {
			if !p.Pass {
				t.Errorf("point %s failed: error=%q violations=%v digest=%s baseline=%s",
					p.Name, p.Error, p.Violations, p.Digest, p.Baseline)
			}
		}
	}
}

// TestTreeConvergenceScalesSublinearly pins the headline property at a
// size the race detector can afford: growing the cluster 8x (8 to 64
// nodes) must grow the ring's mean convergence latency by far more than
// the tree's — the ring circulates O(n) hops, the tree reduces in
// O(log n).
func TestTreeConvergenceScalesSublinearly(t *testing.T) {
	conv := func(nodes int, mode GVTMode) vtime.ModelTime {
		res, err := Run(treeTestConfig(nodes, mode, simnet.Config{Topology: simnet.TopoFatTree}))
		if err != nil {
			t.Fatal(err)
		}
		if res.GVTConvCount == 0 {
			t.Fatalf("no convergence samples at %d nodes, mode %v", nodes, mode)
		}
		return res.GVTConvAvg()
	}
	ringGrowth := float64(conv(64, GVTNIC)) / float64(conv(8, GVTNIC))
	treeGrowth := float64(conv(64, GVTNICTree)) / float64(conv(8, GVTNICTree))
	if treeGrowth >= ringGrowth {
		t.Fatalf("tree convergence grew %.2fx from 8 to 64 nodes, ring %.2fx; want tree well below ring",
			treeGrowth, ringGrowth)
	}
}
