package nicwarp

import (
	"fmt"
	"testing"

	"nicwarp/internal/runner"
)

// shardOpts mirrors detOpts: small enough that sweeping the whole registry
// three times stays fast under -race, large enough that points roll back
// and exchange real cross-node (and, sharded, cross-shard) traffic.
var shardOpts = FigureOpts{Nodes: 4, Seed: 3, Scale: 0.01}

// digestLine flattens a result batch to one digest per point, for exact
// comparison across executions.
func digestLine(t *testing.T, results []runner.Result) string {
	t.Helper()
	s := ""
	for i := range results {
		if results[i].Err != nil {
			t.Fatal(results[i].Err)
		}
		s += fmt.Sprintf("%s=%016x\n", results[i].Job.Name, results[i].Res.Digest)
	}
	return s
}

// renderTable renders an experiment's table from a result batch.
func renderTable(t *testing.T, exp Experiment, results []runner.Result) string {
	t.Helper()
	tbl, err := exp.Render(shardOpts, results)
	if err != nil {
		t.Fatal(err)
	}
	return tbl.String() + "\n" + tbl.CSV()
}

// TestShardedRegistryIdentity is the suite-wide sharded-execution
// contract: every registry experiment — the four figures and every
// ablation — run at 2 and 4 shards must produce byte-identical tables and
// per-point committed digests to the serial run, and a cache warmed by the
// serial run must serve a sharded runner without executing a single point
// (the shard count never reaches the cache key).
func TestShardedRegistryIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-execution sweep comparison")
	}
	for _, exp := range Experiments() {
		exp := exp
		t.Run(exp.Name, func(t *testing.T) {
			t.Parallel()
			jobs := exp.Jobs(shardOpts)
			cache := runner.NewMemCache()
			serialResults := (&runner.Runner{Workers: 2, Cache: cache}).Run(jobs)
			serialTable := renderTable(t, exp, serialResults)
			serialDigests := digestLine(t, serialResults)

			for _, shards := range []int{2, 4} {
				// Cold sharded execution: everything recomputed, nothing
				// may differ.
				cold := (&runner.Runner{Workers: 2, Exec: Exec{Shards: shards}}).Run(exp.Jobs(shardOpts))
				if got := digestLine(t, cold); got != serialDigests {
					t.Errorf("shards=%d: digests differ from serial:\n--- serial ---\n%s--- sharded ---\n%s",
						shards, serialDigests, got)
				}
				if got := renderTable(t, exp, cold); got != serialTable {
					t.Errorf("shards=%d: table differs from serial:\n--- serial ---\n%s--- sharded ---\n%s",
						shards, serialTable, got)
				}

				// Warm replay through the serial run's cache: zero
				// executions, identical rendering.
				warm := (&runner.Runner{Workers: 2, Cache: cache, Exec: Exec{Shards: shards}}).Run(jobs)
				if got := runner.CachedCount(warm); got != len(jobs) {
					t.Errorf("shards=%d: warm replay executed %d of %d points", shards, len(jobs)-got, len(jobs))
				}
				if got := renderTable(t, exp, warm); got != serialTable {
					t.Errorf("shards=%d: cache-warm table differs from serial", shards)
				}
			}
		})
	}
}

// TestRunOptionsDigestInvariance is the table-driven regression test for
// the execution-strategy contract of the options surface: no WithShards
// value may change the config digest (the cache key), the committed digest,
// or any reported counter of a run.
func TestRunOptionsDigestInvariance(t *testing.T) {
	cfg := Config{
		App:       PHOLD(PHOLDParams{Objects: 16, Population: 1, Hops: 50, MeanDelay: 35, Locality: 0.25}),
		Nodes:     4,
		Seed:      9,
		GVT:       GVTNIC,
		GVTPeriod: 40,
	}
	key := cfg.Digest()
	ref, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		opts []RunOption
	}{
		{"no options", nil},
		{"shards=1", []RunOption{WithShards(1)}},
		{"shards=2", []RunOption{WithShards(2)}},
		{"shards=4", []RunOption{WithShards(4)}},
		{"shards beyond nodes", []RunOption{WithShards(64)}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res, err := Run(cfg, c.opts...)
			if err != nil {
				t.Fatal(err)
			}
			if got := cfg.Digest(); got != key {
				t.Fatalf("config digest changed: %s != %s", got, key)
			}
			if res.Digest != ref.Digest {
				t.Errorf("committed digest %016x != reference %016x", res.Digest, ref.Digest)
			}
			if got, want := res.String(), ref.String(); got != want {
				t.Errorf("result differs from reference:\n--- reference ---\n%s--- got ---\n%s", want, got)
			}
		})
	}
}
