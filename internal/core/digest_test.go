package core

import (
	"errors"
	"reflect"
	"testing"

	"nicwarp/internal/apps/phold"
	"nicwarp/internal/nic"
	"nicwarp/internal/proto"
	"nicwarp/internal/simnet"
	"nicwarp/internal/vtime"
)

// digestBase returns a config with every field away from its zero value, so
// a per-field mutation cannot collide with WithDefaults normalization.
func digestBase() Config {
	return Config{
		App:              phold.New(phold.Params{Objects: 8, Population: 1, Hops: 40, MeanDelay: 50, Locality: 0.2}),
		Nodes:            4,
		Seed:             7,
		GVT:              GVTNIC,
		GVTPeriod:        123,
		GVTFallbackDelay: 55 * vtime.Microsecond,
		EarlyCancel:      true,
		DropBufferCap:    17,
		NIC:              nic.DefaultConfig(),
		Net:              simnet.Config{Topology: simnet.TopoFatTree, Radix: 4},
		MaxModelTime:     3 * vtime.Second,
		VerifyOracle:     true,
		SampleEvery:      9 * vtime.Millisecond,
	}
}

// mutateLeaf changes the first mutable scalar leaf reachable under v and
// reports whether it found one.
func mutateLeaf(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
		return true
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
		return true
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
		return true
	case reflect.Float32, reflect.Float64:
		v.SetFloat(v.Float()*2 + 1)
		return true
	case reflect.String:
		v.SetString(v.String() + "x")
		return true
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Field(i).CanSet() && mutateLeaf(v.Field(i)) {
				return true
			}
		}
	case reflect.Ptr:
		if !v.IsNil() {
			return mutateLeaf(v.Elem())
		}
	}
	return false
}

// TestDigestSensitiveToEveryField asserts the cache key covers the full
// exported Config surface: mutating any field (or, for the App interface
// and embedded hardware structs, a scalar inside it) changes the digest.
func TestDigestSensitiveToEveryField(t *testing.T) {
	base := digestBase().Digest()
	typ := reflect.TypeOf(Config{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		cfg := digestBase()
		v := reflect.ValueOf(&cfg).Elem().Field(i)
		switch f.Name {
		case "App":
			// Swap for an app differing only in one parameter.
			cfg.App = phold.New(phold.Params{Objects: 8, Population: 1, Hops: 41, MeanDelay: 50, Locality: 0.2})
		default:
			if !mutateLeaf(v) {
				t.Fatalf("field %s: no mutable scalar leaf found", f.Name)
			}
		}
		if got := cfg.Digest(); got == base {
			t.Errorf("field %s: digest unchanged after mutation", f.Name)
		}
	}
}

// TestDigestNormalizesDefaults asserts a zero field and its explicit
// default share a digest (they describe the same experiment).
func TestDigestNormalizesDefaults(t *testing.T) {
	app := phold.New(phold.Params{Objects: 8, Population: 1, Hops: 40, MeanDelay: 50})
	zero := Config{App: app, Nodes: 4, Seed: 1}
	expl := Config{App: app, Nodes: 4, Seed: 1, GVTPeriod: 1000,
		NIC: nic.DefaultConfig(), Net: simnet.DefaultConfig(),
		MaxModelTime: 24 * 3600 * vtime.Second}
	if zero.Digest() != expl.Digest() {
		t.Fatalf("zero config and explicit defaults digest differently:\n %s\n %s",
			zero.Digest(), expl.Digest())
	}
}

// TestDigestStable asserts repeated digests of the same config are
// identical (no map-order or pointer-identity leakage) and that distinct
// app types do not collide.
func TestDigestStable(t *testing.T) {
	a, b := digestBase(), digestBase()
	if a.Digest() != b.Digest() {
		t.Fatalf("same config, different digests")
	}
	for i := 0; i < 10; i++ {
		if a.Digest() != b.Digest() {
			t.Fatalf("digest unstable on iteration %d", i)
		}
	}
}

// TestDigestGolden pins the digest of a fixed config across processes and
// builds: the on-disk cache (runner.DiskCache) is only sound if the key a
// fresh process computes matches the key a previous process stored. The
// constants must change exactly when Config's canonical shape changes — if
// you extend Config (or a struct it embeds), update the constants AND clear
// results/cache/. The tree-GVT row pins GVTNICTree's integer value, which
// Digest hashes: renumbering the modes would serve a tree config another
// mode's cached result.
func TestDigestGolden(t *testing.T) {
	cfg := Config{App: phold.New(phold.Params{Objects: 8, Population: 1, Hops: 40, MeanDelay: 50, Locality: 0.2}), Nodes: 4, Seed: 7}
	tree := cfg
	tree.GVT = GVTNICTree
	for _, c := range []struct {
		cfg    Config
		golden string
	}{
		{cfg, "4a849e7315fc86f2f50a056b6a3a95ac40d180e24b4c2128451f83ed6c051fe3"},
		{tree, "a7e7bbee2b9764fc14f6650692dfa7282b0fbe5c2573a5f2457db6b094a56702"},
	} {
		if got := c.cfg.Digest(); got != c.golden {
			t.Fatalf("digest of the pinned %v config changed:\n got  %s\n want %s\n"+
				"(expected only when Config's shape changes; update the constant and clear results/cache/)", c.cfg.GVT, got, c.golden)
		}
	}
}

// TestDigestAllocations: the runner keys every job with Digest, so its
// cost is paid per experiment point. Encoding into one buffer keeps it at a
// handful of allocations; formatting each field into the hasher made 116
// for this config. The cap is a quarter of that.
func TestDigestAllocations(t *testing.T) {
	cfg := digestBase()
	if allocs := testing.AllocsPerRun(50, func() { _ = cfg.Digest() }); allocs > 29 {
		t.Fatalf("Digest made %v allocations, want at most 29", allocs)
	}
}

// TestValidateFieldErrors asserts Validate reports typed field errors that
// name the offending field.
func TestValidateFieldErrors(t *testing.T) {
	app := phold.New(phold.Params{Objects: 8, Population: 1, Hops: 40, MeanDelay: 50})
	cases := []struct {
		cfg   Config
		field string
	}{
		{Config{Nodes: 4, GVTPeriod: 10}, "App"},
		{Config{App: app, Nodes: 0, GVTPeriod: 10}, "Nodes"},
		{Config{App: app, Nodes: 4, GVTPeriod: 0}, "GVTPeriod"},
		{Config{App: app, Nodes: 4, GVTPeriod: 10, GVT: GVTMode(99)}, "GVT"},
		// 2 was the retired pGVT: out of range, not a valid mode.
		{Config{App: app, Nodes: 4, GVTPeriod: 10, GVT: GVTMode(2)}, "GVT"},
		{Config{App: app, Nodes: 4, GVTPeriod: 10, NIC: nic.Config{BatchMax: proto.MaxBatchSubs + 1}}, "NIC.BatchMax"},
		// 2 was the retired dragonfly: out of range, not a crossbar.
		{Config{App: app, Nodes: 4, GVTPeriod: 10, Net: simnet.Config{Topology: 2}}, "Net.Topology"},
		{Config{App: app, Nodes: 4, GVTPeriod: 10, Net: simnet.Config{Radix: -1}}, "Net.Radix"},
		// A sub-config set only in part is not filled with defaults.
		{Config{App: app, Nodes: 4, GVTPeriod: 10, NIC: nic.Config{BatchMax: 8}}, "NIC.ClockHz"},
		// Negative overrides are errors, not the defaults zero stands for.
		{Config{App: app, Nodes: 4, GVTPeriod: 10, DropBufferCap: -1}, "DropBufferCap"},
		{Config{App: app, Nodes: 4, GVTPeriod: 10, GVTFallbackDelay: -5}, "GVTFallbackDelay"},
		{Config{App: app, Nodes: 4, GVTPeriod: 10, MaxModelTime: -1}, "MaxModelTime"},
		// An empty receive buffer cannot run.
		{Config{App: app, Nodes: 4, GVTPeriod: 10, NIC: nic.Config{ClockHz: 66e6}}, "NIC.RxQueueCap"},
	}
	for _, c := range cases {
		err := c.cfg.Validate()
		var fe *FieldError
		if !errors.As(err, &fe) {
			t.Fatalf("want *FieldError for %s, got %v", c.field, err)
		}
		if fe.Field != c.field {
			t.Errorf("want field %s, got %s (%v)", c.field, fe.Field, fe)
		}
	}
}

// TestParseGVTMode asserts the accepted spellings resolve and unknown names
// produce a FieldError listing the choices.
func TestParseGVTMode(t *testing.T) {
	for name, want := range map[string]GVTMode{
		"mattern": GVTHostMattern, "nic": GVTNIC, "nic-gvt": GVTNIC,
		"tree": GVTNICTree, "nic-tree": GVTNICTree,
	} {
		got, err := ParseGVTMode(name)
		if err != nil || got != want {
			t.Errorf("ParseGVTMode(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	// "pgvt" named the retired pGVT baseline and is as unknown as "fig9".
	for _, name := range []string{"fig9", "pgvt"} {
		_, err := ParseGVTMode(name)
		var fe *FieldError
		if !errors.As(err, &fe) || fe.Field != "GVT" {
			t.Fatalf("want GVT FieldError for unknown mode %q, got %v", name, err)
		}
	}
	// Modes round-trip through their String form.
	for _, m := range []GVTMode{GVTHostMattern, GVTNIC, GVTNICTree} {
		got, err := ParseGVTMode(m.String())
		if err != nil || got != m {
			t.Errorf("ParseGVTMode(%v.String()) = %v, %v", m, got, err)
		}
	}
}

// TestGVTModeString asserts each valid mode has its own spelling and any
// other value, the retired pGVT value 2 included, prints as its number
// rather than passing for a valid mode.
func TestGVTModeString(t *testing.T) {
	for _, tc := range []struct {
		m    GVTMode
		want string
	}{
		{GVTHostMattern, "mattern"},
		{GVTNIC, "nic-gvt"},
		{GVTNICTree, "nic-tree"},
		{GVTMode(2), "GVTMode(2)"},
		{GVTMode(4), "GVTMode(4)"},
		{GVTMode(-1), "GVTMode(-1)"},
	} {
		if got := tc.m.String(); got != tc.want {
			t.Errorf("GVTMode(%d).String() = %q, want %q", int(tc.m), got, tc.want)
		}
	}
}

// TestParseTopology asserts the accepted spellings resolve, every name
// round-trips through String, and an unknown name (the retired dragonfly
// included) produces a Net.Topology FieldError.
func TestParseTopology(t *testing.T) {
	for name, want := range map[string]simnet.Topology{
		"": simnet.TopoCrossbar, "crossbar": simnet.TopoCrossbar,
		"fattree": simnet.TopoFatTree, "fat-tree": simnet.TopoFatTree,
	} {
		if got, err := ParseTopology(name); err != nil || got != want {
			t.Errorf("ParseTopology(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	for i, name := range simnet.TopologyNames() {
		if got, err := ParseTopology(name); err != nil || int(got) != i || got.String() != name {
			t.Errorf("ParseTopology(%q) = %v, %v; want topology %d", name, got, err, i)
		}
	}
	_, err := ParseTopology("dragonfly")
	var fe *FieldError
	if !errors.As(err, &fe) || fe.Field != "Net.Topology" {
		t.Fatalf("want Net.Topology FieldError for dragonfly, got %v", err)
	}
}
