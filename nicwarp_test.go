package nicwarp

import (
	"strings"
	"testing"

	"nicwarp/internal/runner"
)

// tiny returns options that keep public-API tests to fractions of a second
// per cell.
func tiny() FigureOpts { return FigureOpts{Nodes: 4, Seed: 3, Scale: 0.004} }

// runExperiment executes one registry entry's batch on an uncached
// all-cores runner, the way cmd/experiments does, and returns the point
// results in Jobs order for the fold functions.
func runExperiment(t *testing.T, name string, opts FigureOpts) []runner.Result {
	t.Helper()
	exp, err := ExperimentByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return (&runner.Runner{Exec: Exec{Shards: opts.Shards}}).Run(exp.Jobs(opts))
}

// ablationRows runs one abl-* registry entry down to its typed rows.
func ablationRows(t *testing.T, name string, opts FigureOpts) []AblationRow {
	t.Helper()
	for _, a := range ablationDefs() {
		if a.name == name {
			rows, err := a.fold(opts, runExperiment(t, name, opts))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return rows
		}
	}
	t.Fatalf("unknown ablation %q", name)
	return nil
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
	rows := []GVTRow{{Period: 1, HostSec: 2.5, NICSec: 1.0, HostRounds: 100, NICRounds: 10}}
	out := GVTTable(rows).String()
	for _, want := range []string{"gvt_period", "warped_sec", "nicgvt_sec", "2.5"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
}

func TestCancelTableRendering(t *testing.T) {
	rows := []CancelRow{{X: 900, BaseSec: 10, CancelSec: 8, ImprovementPct: 20, NICDropRatePct: 55}}
	out := CancelTable(rows, "stations").String()
	for _, want := range []string{"stations", "improvement_pct", "900", "55"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
}

func TestAblationTableRendering(t *testing.T) {
	rows := []AblationRow{{Label: "66MHz", Sec: 1.5, Extra: map[string]float64{"x": 3}}}
	out := AblationTable(rows, "x").String()
	if !strings.Contains(out, "66MHz") || !strings.Contains(out, "variant") {
		t.Fatalf("table:\n%s", out)
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

	o := tiny().withDefaults()
	if rows, err := foldGVTRows(runExperiment(t, "fig4", o)); err != nil || len(rows) != 2 {
		t.Fatalf("fig4: %v (%d rows)", err, len(rows))
	}
	if rows, err := foldGVTRows(runExperiment(t, "fig5", o)); err != nil || len(rows) != 2 {
		t.Fatalf("fig5: %v (%d rows)", err, len(rows))
	}
	if rows, err := foldCancelRows(raidCancelXs(o), runExperiment(t, "fig6", o)); err != nil || len(rows) != 1 {
		t.Fatalf("fig6: %v (%d rows)", err, len(rows))
	}
	if rows, err := foldCancelRows(policeCancelXs(o), runExperiment(t, "fig78", o)); err != nil || len(rows) != 1 {
		t.Fatalf("fig78: %v (%d rows)", err, len(rows))
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
		{"abl-cancel-policy", 2},
		{"abl-piggyback-patience", 5},
		{"abl-rx-buffer", 4},
		{"abl-gvt-algorithms", 3},
	} {
		if rows := ablationRows(t, c.name, tiny()); len(rows) != c.rows {
			t.Fatalf("%s: %d rows, want %d", c.name, len(rows), c.rows)
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

func TestPCSInCluster(t *testing.T) {
	p := PCSDefault()
	p.Width, p.Height = 4, 2
	p.CallsPerCell = 25
	for _, cancel := range []bool{false, true} {
		res, err := Run(Config{
			App:          PCS(p),
			Nodes:        4,
			Seed:         5,
			GVT:          GVTNIC,
			GVTPeriod:    100,
			EarlyCancel:  cancel,
			VerifyOracle: true,
		})
		if err != nil {
			t.Fatalf("cancel=%v: %v", cancel, err)
		}
		if res.CommittedEvents == 0 {
			t.Fatal("nothing committed")
		}
	}
}
