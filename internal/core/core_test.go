package core

import (
	"fmt"
	"strings"
	"testing"

	"nicwarp/internal/apps/phold"
	"nicwarp/internal/apps/police"
	"nicwarp/internal/hostmodel"
	"nicwarp/internal/timewarp"
	"nicwarp/internal/vtime"
)

func pholdApp(objects, hops int) App {
	return phold.New(phold.Params{
		Objects:    objects,
		Population: 1,
		Hops:       hops,
		MeanDelay:  40,
		Locality:   0.2,
	})
}

func baseConfig() Config {
	return Config{
		App:          pholdApp(16, 60),
		Nodes:        4,
		Seed:         7,
		GVT:          GVTHostMattern,
		GVTPeriod:    50,
		VerifyOracle: true,
	}
}

func mustRun(t *testing.T, cfg Config) *Result {
	t.Helper()
	cl, err := NewClusterExec(cfg, Exec{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestHostMatternMatchesOracle(t *testing.T) {
	res := mustRun(t, baseConfig())
	if res.CommittedEvents == 0 {
		t.Fatal("nothing committed")
	}
	if res.ExecTime <= 0 {
		t.Fatal("no model time elapsed")
	}
	if res.GVTComputations == 0 {
		t.Fatal("GVT never computed")
	}
	if res.GVTControlMsgs == 0 {
		t.Fatal("host Mattern sent no control messages")
	}
}

func TestNICGVTMatchesOracle(t *testing.T) {
	cfg := baseConfig()
	cfg.GVT = GVTNIC
	res := mustRun(t, cfg)
	if res.GVTComputations == 0 {
		t.Fatal("NIC GVT never completed a computation")
	}
	if res.GVTControlMsgs != 0 {
		t.Fatal("NIC GVT must not send host control messages")
	}
	if res.GVTTokensOnNIC == 0 {
		t.Fatal("no tokens handled on the NIC")
	}
	if res.GVTPiggybacks+res.GVTDoorbells == 0 {
		t.Fatal("handshake never delivered host variables")
	}
}

func TestEarlyCancelMatchesOracle(t *testing.T) {
	cfg := baseConfig()
	cfg.EarlyCancel = true
	cfg.CheckInvariants = true
	res := mustRun(t, cfg)
	if res.Rollbacks == 0 {
		t.Skip("no rollbacks in this seeding; cancellation unexercised")
	}
	// Consistency: each receiver's BIP holes must equal the deliberate
	// drops its sender's NIC made (the checker's bip-gap-accounting rule).
	if v := res.Invariants.ViolationsTotal; v != 0 {
		t.Fatalf("%d invariant violations: %+v", v, res.Invariants.Violations)
	}
	if res.DropsDeclined != 0 {
		t.Fatalf("drop buffer declined %d drops in a small run", res.DropsDeclined)
	}
}

func TestBothOptimizationsTogether(t *testing.T) {
	cfg := baseConfig()
	cfg.GVT = GVTNIC
	cfg.EarlyCancel = true
	res := mustRun(t, cfg)
	if res.CommittedEvents == 0 {
		t.Fatal("nothing committed")
	}
}

func TestSeedsAndModesMatchOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for seed := uint64(1); seed <= 5; seed++ {
		for _, mode := range []GVTMode{GVTHostMattern, GVTNIC} {
			for _, cancel := range []bool{false, true} {
				seed, mode, cancel := seed, mode, cancel
				name := fmt.Sprintf("seed%d-%v-cancel%v", seed, mode, cancel)
				t.Run(name, func(t *testing.T) {
					cfg := baseConfig()
					cfg.Seed = seed
					cfg.GVT = mode
					cfg.EarlyCancel = cancel
					mustRun(t, cfg)
				})
			}
		}
	}
}

func TestAggressiveGVTPeriod(t *testing.T) {
	// GVT_COUNT = 1: the regime where the paper's host implementation
	// breaks down. Both implementations must stay correct.
	for _, mode := range []GVTMode{GVTHostMattern, GVTNIC} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			cfg := baseConfig()
			cfg.App = pholdApp(8, 25)
			cfg.GVTPeriod = 1
			cfg.GVT = mode
			res := mustRun(t, cfg)
			if res.GVTComputations < 5 {
				t.Fatalf("only %d GVT computations at period 1", res.GVTComputations)
			}
		})
	}
}

func TestNICGVTFasterAtAggressivePeriod(t *testing.T) {
	// The paper's headline GVT result: with GVT after every event, the
	// NIC implementation outperforms the host implementation.
	run := func(mode GVTMode) *Result {
		cfg := baseConfig()
		cfg.App = pholdApp(16, 120)
		cfg.GVTPeriod = 1
		cfg.GVT = mode
		cfg.VerifyOracle = false
		return mustRun(t, cfg)
	}
	host := run(GVTHostMattern)
	nicr := run(GVTNIC)
	if nicr.ExecTime >= host.ExecTime {
		t.Fatalf("NIC GVT (%v) not faster than host GVT (%v) at period 1",
			nicr.ExecTime, host.ExecTime)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{},                               // no app
		{App: pholdApp(4, 4), Nodes: 0},  // no nodes
		{App: pholdApp(4, 4), Nodes: -1}, // negative nodes
	}
	for i, cfg := range bad {
		if _, err := NewClusterExec(cfg, Exec{}); err == nil {
			t.Fatalf("config %d accepted", i)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a := mustRun(t, baseConfig())
	b := mustRun(t, baseConfig())
	if a.ExecTime != b.ExecTime || a.Digest != b.Digest ||
		a.ProcessedEvents != b.ProcessedEvents || a.Rollbacks != b.Rollbacks {
		t.Fatalf("nondeterministic results:\n%v\nvs\n%v", a, b)
	}
}

func TestSingleNodeCluster(t *testing.T) {
	cfg := baseConfig()
	cfg.Nodes = 1
	cfg.App = pholdApp(6, 30)
	res := mustRun(t, cfg)
	if res.EventMsgsBuilt != 0 {
		t.Fatalf("single node built %d remote messages", res.EventMsgsBuilt)
	}
	if res.Rollbacks != 0 {
		t.Fatal("single node must never roll back")
	}
}

func TestFlowControlBackpressure(t *testing.T) {
	cfg := baseConfig()
	cfg.Flow.Window = 2
	cfg.Flow.ReturnThreshold = 1
	cfg.Flow.SendBufferPackets = 64
	res := mustRun(t, cfg)
	if res.FlowBlocked == 0 {
		t.Skip("tiny window did not block; workload too light")
	}
}

func TestResultString(t *testing.T) {
	res := mustRun(t, baseConfig())
	if res.String() == "" {
		t.Fatal("empty summary")
	}
}

func TestRunTimeSeries(t *testing.T) {
	cfg := baseConfig()
	cfg.VerifyOracle = false
	cfg.SampleEvery = 5 * vtime.Millisecond
	res := mustRun(t, cfg)
	if len(res.Samples) == 0 {
		t.Fatal("no samples recorded")
	}
	prev := vtime.ModelTime(-1)
	prevProc := int64(-1)
	for _, s := range res.Samples {
		if s.T <= prev {
			t.Fatal("samples not strictly ordered in time")
		}
		if s.Processed < prevProc {
			t.Fatal("cumulative processed count went backwards")
		}
		prev, prevProc = s.T, s.Processed
	}
	last := res.Samples[len(res.Samples)-1]
	if last.Processed != res.ProcessedEvents {
		// The final sample may predate the very last events; allow slack
		// of one sampling interval but not gross divergence.
		if res.ProcessedEvents-last.Processed > res.ProcessedEvents/2 {
			t.Fatalf("final sample processed=%d vs total %d", last.Processed, res.ProcessedEvents)
		}
	}
}

func TestGrainedAppOverridesEventGrain(t *testing.T) {
	// POLICE declares its own (fine) event grain; a run must adopt it.
	// Compare against the same workload with the grain forced to a large
	// value through a custom cost table.
	app := func() App {
		p := police.DefaultConfig(24)
		p.IncidentsPerStation = 2
		return police.New(p)
	}
	fine := mustRun(t, Config{App: app(), Nodes: 4, Seed: 1, GVTPeriod: 100})
	coarseCosts := hostmodel.DefaultCostTable()
	coarseCosts.EventGrain = 200 * vtime.Microsecond
	coarse, err := NewClusterExec(Config{App: app(), Nodes: 4, Seed: 1, GVTPeriod: 100, Costs: coarseCosts}, Exec{})
	if err != nil {
		t.Fatal(err)
	}
	// The Grained interface must override even an explicit table.
	res, err := coarse.Run()
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(res.ExecTime) / float64(fine.ExecTime)
	if ratio > 1.5 {
		t.Fatalf("Grained override ineffective: coarse/fine exec ratio %.2f", ratio)
	}
}

func TestGVTFallbackDelayKnob(t *testing.T) {
	run := func(d vtime.ModelTime) *Result {
		cfg := baseConfig()
		cfg.GVT = GVTNIC
		cfg.GVTPeriod = 1
		cfg.GVTFallbackDelay = d
		cfg.VerifyOracle = false
		return mustRun(t, cfg)
	}
	eager := run(5 * vtime.Microsecond)
	patient := run(5 * vtime.Millisecond)
	if eager.GVTDoorbells <= patient.GVTDoorbells {
		t.Fatalf("eager fallback %d doorbells <= patient %d",
			eager.GVTDoorbells, patient.GVTDoorbells)
	}
}

// negativeApp builds PHOLD with every object id moved down by one, so the
// first is -1.
type negativeApp struct{ App }

func (a negativeApp) Build(lps int, seed uint64) (map[timewarp.ObjectID]timewarp.Object, func(timewarp.ObjectID) int) {
	objs, place := a.App.Build(lps, seed)
	moved := make(map[timewarp.ObjectID]timewarp.Object, len(objs))
	for id, o := range objs {
		moved[id-1] = o
	}
	return moved, func(id timewarp.ObjectID) int { return place(id + 1) }
}

// TestAssemblyRejectsNegativeObjectID: the object directory is indexed by
// id, so assembly refuses an application that builds a negative one with
// an error, not a panic.
func TestAssemblyRejectsNegativeObjectID(t *testing.T) {
	cfg := baseConfig()
	cfg.App = negativeApp{cfg.App}
	if _, err := NewClusterExec(cfg, Exec{}); err == nil || !strings.Contains(err.Error(), "object -1") {
		t.Fatalf("assembling an application with object -1 returned %v, want an error naming it", err)
	}
}
