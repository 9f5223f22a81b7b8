package fault

import (
	"reflect"
	"strings"
	"testing"

	"nicwarp/internal/proto"
	"nicwarp/internal/simnet"
	"nicwarp/internal/vtime"
)

func TestPlanForRegistry(t *testing.T) {
	// Every registered scenario resolves, carries its own name and the
	// requested seed, and validates.
	for _, name := range AllScenarios() {
		p, err := PlanFor(name, 42)
		if err != nil {
			t.Fatalf("PlanFor(%q): %v", name, err)
		}
		if p.Scenario != name || p.Seed != 42 {
			t.Errorf("PlanFor(%q) = {%q, %d}", name, p.Scenario, p.Seed)
		}
		if !p.Enabled() {
			t.Errorf("scenario %q resolves to the zero spec", name)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("registry scenario %q does not validate: %v", name, err)
		}
		if Describe(name) == "" {
			t.Errorf("scenario %q has no description", name)
		}
	}

	// The baseline aliases resolve to the zero plan.
	for _, name := range []string{"", "none"} {
		p, err := PlanFor(name, 42)
		if err != nil {
			t.Fatalf("PlanFor(%q): %v", name, err)
		}
		if p.Enabled() {
			t.Errorf("PlanFor(%q) enabled: %+v", name, p)
		}
	}

	// Typos are errors that name the valid set.
	if _, err := PlanFor("dorp", 1); err == nil || !strings.Contains(err.Error(), "drop") {
		t.Fatalf("unknown scenario error unhelpful: %v", err)
	}
}

func TestScenarioPartitions(t *testing.T) {
	nonHostile := Scenarios()
	all := AllScenarios()
	if len(nonHostile) >= len(all) {
		t.Fatalf("no hostile scenarios registered: %d vs %d", len(nonHostile), len(all))
	}
	for _, name := range nonHostile {
		p, err := PlanFor(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		if p.Hostile() {
			t.Errorf("Scenarios() includes hostile %q", name)
		}
	}
	hostileSeen := 0
	for _, name := range all {
		p, err := PlanFor(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		if p.Hostile() {
			hostileSeen++
		}
	}
	if hostileSeen != len(all)-len(nonHostile) {
		t.Fatalf("hostile count %d inconsistent with partition", hostileSeen)
	}
}

func TestValidateTable(t *testing.T) {
	const us = vtime.Microsecond
	cases := []struct {
		name    string
		spec    Spec
		wantErr string // substring; "" means valid
	}{
		{name: "zero spec", spec: Spec{}},
		{name: "probability above one",
			spec: Spec{DropProb: 1.5, RetxDelay: us}, wantErr: "outside [0, 1]"},
		{name: "negative probability",
			spec: Spec{DelayProb: -0.1, DelayMax: us}, wantErr: "outside [0, 1]"},
		{name: "drop without retx delay",
			spec: Spec{DropProb: 0.1}, wantErr: "RetxDelay"},
		{name: "corrupt without retx delay",
			spec: Spec{CorruptProb: 0.1}, wantErr: "RetxDelay"},
		{name: "delay without max",
			spec: Spec{DelayProb: 0.1}, wantErr: "DelayMax"},
		{name: "dup probability too high",
			spec: Spec{DupProb: 0.6, DupDelay: us}, wantErr: "DupProb"},
		{name: "degrade without delay",
			spec: Spec{DegradeLinks: 1}, wantErr: "DegradeDelay"},
		{name: "negative degrade count",
			spec: Spec{DegradeLinks: -1, DegradeDelay: us}, wantErr: "DegradeDelay"},
		{name: "rx hold without slots",
			spec: Spec{RxHoldEvery: us, RxHoldFor: us}, wantErr: "RxHoldSlots"},
		{name: "tx stall without duration",
			spec: Spec{TxStallEvery: us}, wantErr: "TxStallFor"},
		{name: "well-formed compound",
			spec: Spec{DropProb: 0.05, RetxDelay: us, DupProb: 0.02, DupDelay: us,
				DelayProb: 0.2, DelayMax: 4 * us, DegradeLinks: 1, DegradeDelay: us}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := Plan{Scenario: "x", Seed: 1, Spec: tc.spec}.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("got %v, want error containing %q", err, tc.wantErr)
			}
		})
	}
}

// decisionStream replays a fixed synthetic packet schedule through a fresh
// plane and records every tap decision. OnRoute draws only from the plane's
// own seeded streams, so two planes with the same plan must produce
// identical streams.
func decisionStream(t *testing.T, plan Plan, ports int) []simnet.TapDecision {
	t.Helper()
	p := NewPlane(plan, ports)
	var out []simnet.TapDecision
	for i := 0; i < 400; i++ {
		pkt := &proto.Packet{
			Kind: proto.KindEvent, SrcNode: int32(i % ports), DstNode: int32((i + 1) % ports),
			Seq: uint64(i + 1), SendTS: vtime.VTime(i), RecvTS: vtime.VTime(i + 10),
		}
		out = append(out, p.OnRoute(i%ports, (i+1)%ports, pkt))
	}
	return out
}

func TestPlaneDecisionStreamIsDeterministic(t *testing.T) {
	for _, name := range AllScenarios() {
		plan, err := PlanFor(name, 7)
		if err != nil {
			t.Fatal(err)
		}
		a := decisionStream(t, plan, 4)
		b := decisionStream(t, plan, 4)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("scenario %q: same plan produced different decision streams", name)
		}
	}

	// A different seed must shift the coin flips (the chaos scenario rolls
	// enough dice that a collision over 400 packets would be astonishing).
	plan, err := PlanFor("chaos", 7)
	if err != nil {
		t.Fatal(err)
	}
	other := plan
	other.Seed = 8
	if reflect.DeepEqual(decisionStream(t, plan, 4), decisionStream(t, other, 4)) {
		t.Error("chaos decision stream identical across different seeds")
	}
}

func TestNICOriginatedPacketsExemptFromRandomFaults(t *testing.T) {
	plan, err := PlanFor("chaos", 3)
	if err != nil {
		t.Fatal(err)
	}
	// Remove degradation: it legitimately applies to Seq-0 control traffic.
	plan.Spec.DegradeLinks = 0
	plan.Spec.DegradeDelay = 0
	p := NewPlane(plan, 2)
	for i := 0; i < 200; i++ {
		tok := &proto.Packet{Kind: proto.KindGVTToken, SrcNode: 0, DstNode: 1, Seq: 0}
		d := p.OnRoute(0, 1, tok)
		if d != (simnet.TapDecision{}) {
			t.Fatalf("iteration %d: Seq-0 packet got fault decision %+v", i, d)
		}
	}
	if p.Injected() != 0 {
		t.Fatalf("plane counted %d injections on control-only traffic", p.Injected())
	}
}

func TestDegradedLinksDelayBothDirectionsConstantly(t *testing.T) {
	const us = vtime.Microsecond
	plan := Plan{Scenario: "degrade", Seed: 5,
		Spec: Spec{DegradeLinks: 1, DegradeDelay: 20 * us}}
	p := NewPlane(plan, 4)
	bad := -1
	for i, v := range p.degraded {
		if v {
			bad = i
		}
	}
	if bad == -1 {
		t.Fatal("no port degraded")
	}
	good := (bad + 1) % 4
	ev := func() *proto.Packet {
		return &proto.Packet{Kind: proto.KindEvent, Seq: 1}
	}
	// Constant delay in both directions, including for Seq-0 control
	// packets; untouched ports see nothing.
	for i := 0; i < 3; i++ {
		if d := p.OnRoute(bad, good, ev()); d.ExtraDelay != 20*us {
			t.Fatalf("out via degraded port: delay %v", d.ExtraDelay)
		}
		if d := p.OnRoute(good, bad, ev()); d.ExtraDelay != 20*us {
			t.Fatalf("in via degraded port: delay %v", d.ExtraDelay)
		}
		tok := &proto.Packet{Kind: proto.KindGVTToken, Seq: 0}
		if d := p.OnRoute(bad, good, tok); d.ExtraDelay != 20*us {
			t.Fatalf("control via degraded port: delay %v", d.ExtraDelay)
		}
		other := (bad + 2) % 4
		if other == good {
			other = (bad + 3) % 4
		}
		if d := p.OnRoute(good, other, ev()); d != (simnet.TapDecision{}) {
			t.Fatalf("clean path got decision %+v", d)
		}
	}
	// Three degraded routings per iteration, each one injection; the clean
	// path adds none.
	if p.Injected() != 9 {
		t.Fatalf("plane counted %d injections, want 9", p.Injected())
	}
}

func TestRecoverableLossAlwaysRedelivers(t *testing.T) {
	// Every drop or corrupt decision from a non-hostile scenario must carry
	// a redelivery delay — recoverable-loss semantics are what keep the
	// committed digests equal to the fault-free baseline.
	for _, name := range Scenarios() {
		plan, err := PlanFor(name, 11)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range decisionStream(t, plan, 4) {
			if d.Drop && d.Redeliver <= 0 {
				t.Fatalf("scenario %q produced an unrecoverable drop", name)
			}
		}
	}

	// The hostile trueloss scenario drops without redelivery.
	plan, err := PlanFor("trueloss", 11)
	if err != nil {
		t.Fatal(err)
	}
	sawTrueLoss := false
	for _, d := range decisionStream(t, plan, 4) {
		if d.Drop {
			if d.Redeliver != 0 {
				t.Fatal("trueloss scheduled a redelivery")
			}
			sawTrueLoss = true
		}
	}
	if !sawTrueLoss {
		t.Fatal("trueloss never dropped in 400 packets")
	}
}
