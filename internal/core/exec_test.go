package core

import (
	"reflect"
	"testing"

	"nicwarp/internal/apps/phold"
	"nicwarp/internal/nic"
	"nicwarp/internal/simnet"
	"nicwarp/internal/vtime"
)

// execConfig is a small but non-trivial cluster config: enough traffic to
// roll back and exchange real messages, small enough that the three-way
// shard comparison stays fast under -race.
func execConfig() Config {
	return Config{
		App:             phold.New(phold.Params{Objects: 16, Population: 1, Hops: 60, MeanDelay: 40, Locality: 0.2}),
		Nodes:           4,
		Seed:            11,
		GVT:             GVTNIC,
		GVTPeriod:       25,
		EarlyCancel:     true,
		VerifyOracle:    true,
		CheckInvariants: true,
	}
}

// TestLookaheadPositive pins the window bound the shard group runs under:
// it must be positive at the default hardware parameters (or the group
// degenerates to serial) and equal to the minimum of the wire bound and
// the credit-return delay, the two cross-shard interaction paths.
func TestLookaheadPositive(t *testing.T) {
	cfg := execConfig().WithDefaults()
	la := Lookahead(cfg)
	if la <= 0 {
		t.Fatalf("Lookahead = %v, want > 0 at default hardware parameters", la)
	}
	wire := vtime.Cycles(nic.SendCycles, cfg.NIC.ClockHz) + simnet.LinkLatency + simnet.SwitchLatency
	if want := vtime.MinM(wire, nic.CreditReturnDelay); la != want {
		t.Fatalf("Lookahead = %v, want min(wire %v, credit %v) = %v", la, wire, nic.CreditReturnDelay, want)
	}
}

// TestExecShardsClamp asserts the shard count is clamped to the viable
// range: at least 1 and at most the node count. Run-time sampling reads at
// the window barrier, so it keeps the shards it was given.
func TestExecShardsClamp(t *testing.T) {
	cases := []struct {
		name   string
		shards int
		mutate func(*Config)
		want   int
	}{
		{"zero means serial", 0, nil, 1},
		{"negative means serial", -3, nil, 1},
		{"two", 2, nil, 2},
		{"clamped to nodes", 99, nil, 4},
		{"sampling keeps shards", 4, func(c *Config) { c.SampleEvery = vtime.Millisecond }, 4},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := execConfig()
			if c.mutate != nil {
				c.mutate(&cfg)
			}
			cl, err := NewClusterExec(cfg, Exec{Shards: c.shards})
			if err != nil {
				t.Fatal(err)
			}
			if got := cl.Shards(); got != c.want {
				t.Fatalf("Shards() = %d, want %d", got, c.want)
			}
		})
	}
}

// TestShardedIdentity is the core sharded-execution contract: the same
// config run serially and at 2 and 4 shards commits byte-identical results
// — same digest, same counters, same modeled times — with the sequential
// oracle and the protocol invariants checked inside every run.
func TestShardedIdentity(t *testing.T) {
	var ref *Result
	for _, shards := range []int{1, 2, 4} {
		cl, err := NewClusterExec(execConfig(), Exec{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		if got := cl.Shards(); got != shards {
			t.Fatalf("Shards() = %d, want %d", got, shards)
		}
		res, err := cl.Run()
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if ref == nil {
			ref = res
			continue
		}
		if res.Digest != ref.Digest {
			t.Errorf("shards=%d: digest %016x != serial %016x", shards, res.Digest, ref.Digest)
		}
		if got, want := res.String(), ref.String(); got != want {
			t.Errorf("shards=%d: result differs from serial:\n--- serial ---\n%s--- sharded ---\n%s", shards, want, got)
		}
	}
}

// TestSamplesIgnoreShardCount: the run-time series is read at window
// barriers, so it is identical at every shard count, and sampling schedules
// nothing, so the sampled run ends at the same time with the same digest as
// the unsampled one.
func TestSamplesIgnoreShardCount(t *testing.T) {
	plain, err := NewClusterExec(execConfig(), Exec{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := plain.Run()
	if err != nil {
		t.Fatal(err)
	}
	cfg := execConfig()
	cfg.SampleEvery = 200 * vtime.Microsecond
	var ref []Sample
	for _, shards := range []int{1, 2, 4} {
		cl, err := NewClusterExec(cfg, Exec{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		res, err := cl.Run()
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if res.ExecTime != want.ExecTime || res.Digest != want.Digest {
			t.Fatalf("shards=%d: sampling moved the run: exec %v digest %016x, unsampled %v %016x",
				shards, res.ExecTime, res.Digest, want.ExecTime, want.Digest)
		}
		if len(res.Samples) < 3 {
			t.Fatalf("shards=%d: only %d samples over %v", shards, len(res.Samples), res.ExecTime)
		}
		if ref == nil {
			ref = res.Samples
			continue
		}
		if !reflect.DeepEqual(res.Samples, ref) {
			t.Fatalf("shards=%d: samples differ from serial:\n%+v\nvs\n%+v", shards, res.Samples, ref)
		}
	}
}

// TestDigestExcludesExec is the structural half of the cache-key contract:
// execution strategy lives in Exec, a type Config cannot even reach, so
// Config.Digest is invariant under it by construction. The test pins that
// construction — no Config field (at any depth Digest hashes) may be named
// like an execution knob — and re-checks the digest across the Exec values
// the CLIs can produce.
func TestDigestExcludesExec(t *testing.T) {
	typ := reflect.TypeOf(Config{})
	for i := 0; i < typ.NumField(); i++ {
		if name := typ.Field(i).Name; name == "Shards" || name == "Exec" {
			t.Fatalf("Config grew an execution-strategy field %q; it belongs on Exec", name)
		}
	}
	cfg := execConfig()
	want := cfg.Digest()
	for _, ex := range []Exec{{}, {Shards: 1}, {Shards: 2}, {Shards: 64}} {
		cl, err := NewClusterExec(cfg, ex)
		if err != nil {
			t.Fatal(err)
		}
		_ = cl // building a sharded cluster must not touch the config
		if got := cfg.Digest(); got != want {
			t.Fatalf("Exec %+v changed the config digest: %s != %s", ex, got, want)
		}
	}
}
