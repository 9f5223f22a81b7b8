package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"regexp"
	"strings"
	"testing"

	"nicwarp"
)

// testSizes shrinks every workload so the whole harness runs in seconds.
// It exists only here: the command has no flag that reduces a workload.
func testSizes() sizes {
	return sizes{
		RAIDRequests:   300,
		CancelStations: 20,
		BatchStations:  60,
		PHOLDNodes:     16,
		PHOLDHops:      12,
		SweepScale:     0.005,
	}
}

func testOptions(names ...string) *options {
	o := &options{seed: 1, reps: 1, trace: true, sizes: testSizes(), log: io.Discard}
	if len(names) == 0 {
		for _, w := range workloads(o.sizes) {
			names = append(names, w.name)
		}
	}
	o.names = names
	return o
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return f
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestHarnessMatchesBenchmarkFile runs every workload once at the shrunken
// sizes, with the traced pass, and checks that the report and BENCHMARK.json
// name exactly the same workloads and metrics, with the same units,
// directions and bounds.
func TestHarnessMatchesBenchmarkFile(t *testing.T) {
	rep, err := runBench(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	f := loadBenchmarkFile(t)

	if len(rep.Workloads) != len(f.Workloads) {
		t.Fatalf("report has %d workloads, BENCHMARK.json %d", len(rep.Workloads), len(f.Workloads))
	}
	defs := workloads(testSizes())
	for i, w := range rep.Workloads {
		if w.Name != f.Workloads[i].Name {
			t.Errorf("workload %d: report %q, BENCHMARK.json %q", i, w.Name, f.Workloads[i].Name)
		}
		if f.Workloads[i].Why != defs[i].why {
			t.Errorf("workload %s: BENCHMARK.json why differs from workloads.go", w.Name)
		}
		if n := len(defs[i].why); n > 200 || strings.Contains(defs[i].why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, n)
		}
		if !nameRE.MatchString(w.Name) {
			t.Errorf("workload name %q is not a valid name", w.Name)
		}
		if !w.Correct || w.Failed != 0 || w.Attempted < 1 {
			t.Errorf("workload %s: correct=%v failed=%d attempted=%d: %v", w.Name, w.Correct, w.Failed, w.Attempted, w.Failures)
		}

		if len(w.EndToEnd) != len(f.EndToEnd) || len(endToEnd) != len(f.EndToEnd) {
			t.Errorf("workload %s: %d end-to-end metrics reported, %d in the catalogue, %d in BENCHMARK.json",
				w.Name, len(w.EndToEnd), len(endToEnd), len(f.EndToEnd))
		}
		for j, m := range f.EndToEnd {
			got, ok := w.EndToEnd[m.Name]
			if !ok {
				t.Errorf("workload %s: end-to-end metric %s missing from the report", w.Name, m.Name)
				continue
			}
			if got.Unit != m.Unit {
				t.Errorf("%s/%s: unit %q, BENCHMARK.json %q", w.Name, m.Name, got.Unit, m.Unit)
			}
			if got.Value <= 0 {
				t.Errorf("%s/%s: end-to-end metrics must never be 0, got %v", w.Name, m.Name, got.Value)
			}
			if d := endToEnd[j]; d.Name != m.Name || d.Unit != m.Unit || d.Better != m.Better || d.Bound != m.Bound {
				t.Errorf("end-to-end metric %d: catalogue %+v, BENCHMARK.json %+v", j, d, m)
			}
		}
		if len(w.PerLayer) != len(f.PerLayer) || len(perLayer) != len(f.PerLayer) {
			t.Errorf("workload %s: %d per-layer metrics reported, %d in the catalogue, %d in BENCHMARK.json",
				w.Name, len(w.PerLayer), len(perLayer), len(f.PerLayer))
		}
		for j, m := range f.PerLayer {
			got, ok := w.PerLayer[m.Name]
			if !ok {
				t.Errorf("workload %s: per-layer metric %s missing from the report", w.Name, m.Name)
				continue
			}
			if got.Unit != m.Unit {
				t.Errorf("%s/%s: unit %q, BENCHMARK.json %q", w.Name, m.Name, got.Unit, m.Unit)
			}
			if d := perLayer[j]; d.Name != m.Name || d.Unit != m.Unit || d.Better != m.Better {
				t.Errorf("per-layer metric %d: catalogue %+v, BENCHMARK.json %+v", j, d, m)
			}
		}
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %q (unit %q) is not a valid name/unit", m.Name, m.Unit)
		}
		if seen[m.Name] {
			t.Errorf("metric %q is listed twice", m.Name)
		}
		seen[m.Name] = true
		if m.Better != lower && m.Better != higher {
			t.Errorf("metric %q: better = %q", m.Name, m.Better)
		}
	}
	for _, p := range probes {
		for _, name := range p.names {
			if !seen[name] {
				t.Errorf("probe %q is not a per-layer metric", name)
			}
			for _, w := range rep.Workloads {
				if w.PerLayer[name].Value <= 0 {
					t.Errorf("%s: probe %s measured %v", w.Name, name, w.PerLayer[name].Value)
				}
			}
		}
	}

	// The layer predictions README.md records must hold at any size.
	byName := map[string]workloadReport{}
	for _, w := range rep.Workloads {
		byName[w.Name] = w
	}
	for _, w := range rep.Workloads {
		frames := w.PerLayer["nic.batch_frames"].Value
		if (w.Name == "police-batch8") != (frames > 0) {
			t.Errorf("%s: nic.batch_frames = %v", w.Name, frames)
		}
	}
	for _, w := range rep.Workloads {
		// Every metric a workload's layers feed must have been filled, not
		// left at the zero a missing key reads as.
		for _, name := range []string{"core.run_ms", "apps.execute_calls", "apps.restore_calls", "timewarp.rollbacks", "nic.wire_packets", "iobus.crossings"} {
			if w.PerLayer[name].Value <= 0 {
				t.Errorf("%s: %s = %v", w.Name, name, w.PerLayer[name].Value)
			}
		}
		if got, want := w.PerLayer["apps.execute_calls"].Value, w.PerLayer["timewarp.processed"].Value; got != want {
			t.Errorf("%s: apps.execute_calls = %v, timewarp.processed = %v", w.Name, got, want)
		}
	}
	if v := byName["phold-ft256-tree-shards2"].PerLayer["des.shard_speedup"].Value; v <= 0 {
		t.Errorf("des.shard_speedup = %v, want a measured ratio", v)
	}
	if a, b := byName["phold-ft256-tree"].Reps[0].Digest, byName["phold-ft256-tree-shards2"].Reps[0].Digest; a != b {
		t.Errorf("sharded digest %s differs from the serial twin's %s", b, a)
	}
}

// TestOracleCheckFires corrupts the oracle digest and expects every
// execution to be counted as failed and the command to exit non-zero.
func TestOracleCheckFires(t *testing.T) {
	o := testOptions("raid-hostgvt")
	o.tamper = func(or *oracle) { or.digest ^= 1 }
	rep, err := runBench(o)
	if err != nil {
		t.Fatal(err)
	}
	w := rep.Workloads[0]
	if w.Correct || w.Failed != w.Attempted || w.Failed == 0 {
		t.Fatalf("corrupted oracle: correct=%v failed=%d attempted=%d", w.Correct, w.Failed, w.Attempted)
	}
	if err := check(oracle{digest: 1, events: 5}, oracle{digest: 1, events: 6}); err == nil {
		t.Error("check accepted a wrong committed-event count")
	}
}

// TestWrapperIsInvisible runs each single-simulation workload with and
// without the traced App wrapper and expects identical committed digests and
// modeled execution times.
func TestWrapperIsInvisible(t *testing.T) {
	for _, w := range workloads(testSizes()) {
		if w.sweep {
			continue
		}
		cfg := w.points(1)[0].Config
		plain, err := nicwarp.Run(cfg, nicwarp.WithShards(w.shards))
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		ta, app := wrapApp(cfg.App)
		cfg.App = app
		wrapped, err := nicwarp.Run(cfg, nicwarp.WithShards(w.shards))
		if err != nil {
			t.Fatalf("%s wrapped: %v", w.name, err)
		}
		if plain.Digest != wrapped.Digest || plain.ExecTime != wrapped.ExecTime || plain.CommittedEvents != wrapped.CommittedEvents {
			t.Errorf("%s: wrapper changed the run: digest %x/%x exec %v/%v", w.name,
				plain.Digest, wrapped.Digest, plain.ExecTime, wrapped.ExecTime)
		}
		if execute, _, _ := ta.totals(); execute.calls != plain.ProcessedEvents {
			t.Errorf("%s: wrapper saw %d executions, kernel processed %d", w.name, execute.calls, plain.ProcessedEvents)
		}
	}
}

// TestCompare judges a report against itself, against a slowed copy and
// against a copy whose modeled time moved.
func TestCompare(t *testing.T) {
	o := testOptions("raid-hostgvt", "police-cancel")
	o.trace = false
	o.reps = 3
	a, err := runBench(o)
	if err != nil {
		t.Fatal(err)
	}
	clone := func() *report {
		data, err := json.Marshal(a)
		if err != nil {
			t.Fatal(err)
		}
		var b report
		if err := json.Unmarshal(data, &b); err != nil {
			t.Fatal(err)
		}
		return &b
	}
	verdicts := func(b *report) map[string]string {
		rows, err := compareReports(a, b)
		if err != nil {
			t.Fatal(err)
		}
		v := map[string]string{}
		for _, r := range rows {
			v[r.workload+"/"+r.metric] = r.verdict
		}
		return v
	}

	for key, v := range verdicts(clone()) {
		if v != verdictOK {
			t.Errorf("self-comparison: %s is %s", key, v)
		}
	}

	slow := clone()
	for i := range slow.Workloads[0].Reps {
		slow.Workloads[0].Reps[i].WallMs *= 1.5
	}
	v := verdicts(slow)
	if v["raid-hostgvt/wall_ms_p50"] != verdictRegressed || v["raid-hostgvt/committed_events_per_s"] != verdictRegressed {
		t.Errorf("a 50%% slowdown was judged %s / %s", v["raid-hostgvt/wall_ms_p50"], v["raid-hostgvt/committed_events_per_s"])
	}
	if v["police-cancel/wall_ms_p50"] != verdictOK || v["raid-hostgvt/allocs_per_run"] != verdictOK {
		t.Errorf("untouched metrics were judged %s / %s", v["police-cancel/wall_ms_p50"], v["raid-hostgvt/allocs_per_run"])
	}

	noisy := clone()
	noisy.Workloads[0].Reps[0].WallMs *= 0.5
	noisy.Workloads[0].Reps[2].WallMs *= 2
	if got := verdicts(noisy)["raid-hostgvt/wall_ms_p50"]; got != verdictUnresolved {
		t.Errorf("a spread wider than the bound was judged %s", got)
	}

	moved := clone()
	moved.Workloads[1].Reps[1].ModeledMs *= 1.0001
	moved.Workloads[1].Reps[2].Digest = "0000000000000000"
	v = verdicts(moved)
	if v["police-cancel/modeled_exec_ms"] != verdictDiffers || v["police-cancel/digests"] != verdictDiffers {
		t.Errorf("moved exact metrics were judged %s / %s", v["police-cancel/modeled_exec_ms"], v["police-cancel/digests"])
	}

	other := clone()
	other.Env.Seed = 2
	if _, err := compareReports(a, other); err == nil {
		t.Error("reports of different seeds were compared")
	}
}

// TestDriverLine checks the one-workload form the driver runs: exit status,
// and a last line with exactly the contract's keys.
func TestDriverLine(t *testing.T) {
	rep, err := runBench(&options{
		names: []string{"police-batch8"}, seed: 2, seconds: 1, sizes: testSizes(), log: io.Discard,
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(rep.Workloads[0].Reps); n != minReps {
		t.Errorf("-seconds 1 ran %d repetitions, want the floor of %d", n, minReps)
	}
	data, err := json.Marshal(driverLine(rep.Workloads[0], false))
	if err != nil {
		t.Fatal(err)
	}
	var line map[string]json.RawMessage
	if err := json.Unmarshal(data, &line); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := line[key]; !ok {
			t.Errorf("driver line lacks %q: %s", key, data)
		}
	}
	if len(line) != 4 {
		t.Errorf("driver line has %d keys, want 4: %s", len(line), data)
	}

	var stdout, stderr bytes.Buffer
	if status := run([]string{"-workload", "no-such-workload"}, &stdout, &stderr); status == 0 || stdout.Len() != 0 {
		t.Errorf("unknown workload: status %d, stdout %q", status, stdout.String())
	}
}
