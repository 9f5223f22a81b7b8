package nicwarp

import (
	"slices"
	"strings"
	"testing"

	"nicwarp/internal/fault"
	"nicwarp/internal/runner"
	"nicwarp/internal/vtime"
)

// tiny returns options that keep public-API tests to fractions of a second
// per cell.
func tiny() FigureOpts { return FigureOpts{Nodes: 4, Seed: 3, Scale: 0.004} }

// runExperiment executes one registry entry's batch on an uncached
// all-cores runner, the way cmd/experiments does, and returns the point
// results in Jobs order: row by row, each row's points in declaration order.
func runExperiment(t *testing.T, name string, opts FigureOpts) []*Result {
	t.Helper()
	exp, err := ExperimentByName(name)
	if err != nil {
		t.Fatal(err)
	}
	results := (&runner.Runner{}).Run(exp.Jobs(opts))
	res := make([]*Result, len(results))
	for i := range results {
		if results[i].Err != nil {
			t.Fatalf("%s: %v", name, results[i].Err)
		}
		res[i] = results[i].Res
	}
	return res
}

// renderFake renders a registry entry from hand-made point results, one
// per Jobs point, so a table's bytes can be checked without running it.
func renderFake(t *testing.T, name string, opts FigureOpts, res ...*Result) string {
	t.Helper()
	exp, err := ExperimentByName(name)
	if err != nil {
		t.Fatal(err)
	}
	results := make([]runner.Result, len(res))
	for i, r := range res {
		results[i].Res = r
	}
	tbl, err := exp.Render(opts, results)
	if err != nil {
		t.Fatal(err)
	}
	return tbl.String()
}

func TestRunPublicAPI(t *testing.T) {
	res, err := Run(Config{
		App:          PHOLD(PHOLDParams{Objects: 16, Population: 1, Hops: 40, MeanDelay: 30, Locality: 0.25}),
		Nodes:        4,
		Seed:         7,
		GVT:          GVTNIC,
		GVTPeriod:    25,
		EarlyCancel:  true,
		VerifyOracle: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.CommittedEvents == 0 || res.ExecTime <= 0 {
		t.Fatalf("empty result: %+v", res)
	}
}

func TestMustRunPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustRun(Config{}) // no app
}

func TestFigureOptsDefaults(t *testing.T) {
	o := FigureOpts{}.withDefaults()
	if o.Nodes != 8 || o.Seed != 1 || o.Scale != 1 {
		t.Fatalf("defaults: %+v", o)
	}
	if (FigureOpts{Scale: 0.5}).scaled(100) != 50 {
		t.Fatal("scaled")
	}
	if (FigureOpts{Scale: 0.0001}.withDefaults()).scaled(100) != 1 {
		t.Fatal("scaled floor")
	}
}

func TestPaperSweepConstants(t *testing.T) {
	if PoliceStations[0] != 900 || PoliceStations[len(PoliceStations)-1] != 4000 {
		t.Fatalf("station sweep %v does not match the paper", PoliceStations)
	}
	if RAIDRequestCounts[0] != 50000 || RAIDRequestCounts[len(RAIDRequestCounts)-1] != 400000 {
		t.Fatalf("request sweep %v does not match the paper", RAIDRequestCounts)
	}
	if GVTPeriods[0] != 1 || GVTPeriods[len(GVTPeriods)-1] != 100000 {
		t.Fatalf("period sweep %v does not match the paper", GVTPeriods)
	}
}

func TestGVTTableRendering(t *testing.T) {
	saved := GVTPeriods
	GVTPeriods = []int{1}
	defer func() { GVTPeriods = saved }()
	out := renderFake(t, "fig4", FigureOpts{},
		&Result{ExecTime: 2500 * vtime.Millisecond, GVTRounds: 123456},
		&Result{ExecTime: vtime.Second, GVTRounds: 10})
	// Counts print as integers, not %.4g ("1.235e+05").
	for _, want := range []string{"gvt_period", "warped_sec", "nicgvt_sec", "2.5", "123456"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
}

func TestCancelTableRendering(t *testing.T) {
	saved := PoliceStations
	PoliceStations = []int{900}
	defer func() { PoliceStations = saved }()
	out := renderFake(t, "fig78", FigureOpts{},
		&Result{ExecTime: 10 * vtime.Second},
		&Result{ExecTime: 8 * vtime.Second, DroppedInPlace: 55, AntisBuilt: 100})
	for _, want := range []string{"stations", "improvement_pct", "900", "20", "55"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
}

func TestAblationTableRendering(t *testing.T) {
	res := make([]*Result, 5) // one per abl-nic-speed variant
	for i := range res {
		res[i] = &Result{ExecTime: 1500 * vtime.Millisecond, NICUtil: 0.25}
	}
	out := renderFake(t, "abl-nic-speed", FigureOpts{}, res...)
	for _, want := range []string{"variant", "nicUtil", "66MHz", "1.5", "0.25"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
}

// TestFiguresSmokeTiny exercises every paper-figure registry entry end to
// end at a minuscule scale so the public experiment surface stays green.
func TestFiguresSmokeTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	// Restrict the period sweep for speed, restoring afterwards.
	savedPeriods := GVTPeriods
	GVTPeriods = []int{1, 100}
	defer func() { GVTPeriods = savedPeriods }()
	savedStations := PoliceStations
	PoliceStations = []int{900}
	defer func() { PoliceStations = savedStations }()
	savedReqs := RAIDRequestCounts
	RAIDRequestCounts = []int{50000}
	defer func() { RAIDRequestCounts = savedReqs }()

	// Two points per row: host/NIC GVT, or baseline/cancellation.
	for _, c := range []struct {
		name string
		rows int
	}{{"fig4", 2}, {"fig5", 2}, {"fig6", 1}, {"fig78", 1}} {
		if n := len(runExperiment(t, c.name, tiny())); n != 2*c.rows {
			t.Fatalf("%s: %d points, want %d", c.name, n, 2*c.rows)
		}
	}
}

func TestAblationsSmokeTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, c := range []struct {
		name string
		rows int
	}{
		{"abl-nic-speed", 5},
		{"abl-drop-buffer", 4},
		{"abl-piggyback-patience", 5},
		{"abl-rx-buffer", 4},
	} {
		if n := len(runExperiment(t, c.name, tiny())); n != c.rows {
			t.Fatalf("%s: %d rows, want %d", c.name, n, c.rows)
		}
	}
}

func TestPaperConfigsExposed(t *testing.T) {
	g := RAIDGVTConfig(1000)
	if g.Sources != 10 {
		t.Fatal("Figure 4 uses 10 sources")
	}
	c := RAIDCancelConfig(1000)
	if c.Sources != 16 {
		t.Fatal("Figure 6 uses 16 sources")
	}
	p := PoliceConfig(900)
	if p.Stations != 900 || p.Centres != 8 {
		t.Fatalf("police config: %+v", p)
	}
}

// TestFaultScenarioIsPlanFor: the public FaultScenario resolves a name and
// seed to exactly the plan the fault plane builds, and an unknown name is an
// error rather than the empty plan.
func TestFaultScenarioIsPlanFor(t *testing.T) {
	got, err := FaultScenario("drop", 1)
	want, wantErr := fault.PlanFor("drop", 1)
	if err != nil || wantErr != nil || got != want || got == (FaultPlan{}) {
		t.Fatalf("FaultScenario(drop, 1) = %+v, %v; PlanFor gives %+v, %v", got, err, want, wantErr)
	}
	if _, err := FaultScenario("dorp", 1); err == nil {
		t.Fatal("an unknown scenario name must be an error")
	}
}

// TestAblationNamesAreTheAblEntries: the "ablations" alias cmd/experiments
// expands through AblationNames selects exactly the abl-* registry entries,
// in suite order.
func TestAblationNamesAreTheAblEntries(t *testing.T) {
	var want []string
	for _, e := range Experiments() {
		if strings.HasPrefix(e.Name, "abl-") {
			want = append(want, e.Name)
		}
	}
	if got := AblationNames(); len(want) == 0 || !slices.Equal(got, want) {
		t.Fatalf("AblationNames() = %v, want %v", got, want)
	}
}
