package main

import (
	"fmt"
	"runtime"
	"time"

	"nicwarp/internal/core"
	"nicwarp/internal/runner"
)

// tracedRun is what the traced pass observed for one workload: the summed
// spans of its points and the simulator's own counters.
type tracedRun struct {
	results    []*core.Result
	assemble   time.Duration // core.NewClusterExec, app build excluded
	run        time.Duration // Cluster.Run
	build      callTimer
	execute    callTimer
	save       callTimer
	restore    callTimer
	sequential time.Duration // timewarp.Sequential over the same objects
	desEvents  uint64        // des.Engine.Processed, serial clusters only
	err        error
}

// serialLoop assembles and runs every point in turn on this goroutine. With
// a tracer it wraps each point's App and records the spans; without, it is
// the untraced base the tracing overhead and a sweep's serial sum are measured from.
func (w *workload) serialLoop(jobs []runner.Job, tr *tracer, root int) tracedRun {
	var t tracedRun
	for _, j := range jobs {
		cfg := j.Config
		var ta *tracedApp
		if tr != nil {
			ta, cfg.App = wrapApp(cfg.App)
		}
		t0 := time.Now()
		a := -1
		if tr != nil {
			a = tr.begin("core.assemble", "core", w.name, root)
		}
		cl, err := core.NewClusterExec(cfg, core.Exec{Shards: w.shards})
		assembled := time.Since(t0)
		if tr != nil {
			tr.end(a)
			tr.aggregate("apps.build", "apps", w.name, a, ta.build.dur(), ta.build.calls)
			assembled -= ta.build.dur()
			t.build.add(ta.build)
		}
		t.assemble += assembled
		if err != nil {
			t.err = fmt.Errorf("%s: %w", j.Name, err)
			return t
		}
		t1 := time.Now()
		r := -1
		if tr != nil {
			r = tr.begin("core.run", "core", w.name, root)
		}
		res, err := cl.Run()
		t.run += time.Since(t1)
		if tr != nil {
			tr.end(r)
			execute, save, restore := ta.totals()
			tr.aggregate("apps.execute", "apps", w.name, r, execute.dur(), execute.calls)
			tr.aggregate("apps.save", "apps", w.name, r, save.dur(), save.calls)
			tr.aggregate("apps.restore", "apps", w.name, r, restore.dur(), restore.calls)
			t.execute.add(execute)
			t.save.add(save)
			t.restore.add(restore)
		}
		if err != nil {
			t.err = fmt.Errorf("%s: %w", j.Name, err)
			return t
		}
		if cl.Shards() == 1 {
			t.desEvents += cl.Engine().Processed()
		}
		t.results = append(t.results, res)
	}
	return t
}

// digestUs times Config.Digest over the workload's points: microseconds per
// call, median of five passes.
func digestUs(jobs []runner.Job) float64 {
	const passes, perPass = 5, 20
	var us []float64
	for p := 0; p < passes; p++ {
		t0 := time.Now()
		for i := 0; i < perPass; i++ {
			for _, j := range jobs {
				_ = j.Config.Digest()
			}
		}
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3/float64(perPass*len(jobs)))
	}
	return median(us)
}

// twinWalls returns the serial twin's wall times over the same derived
// seeds as s's repetitions: from the twin's own state when this invocation
// measured it too, otherwise by measuring it here.
func (s *state) twinWalls(o *options, states []*state) []float64 {
	for _, other := range states {
		if other.w == s.twin && len(other.out.Reps) == len(s.out.Reps) {
			return column(other.out.Reps, wallMs)
		}
	}
	var walls []float64
	for _, r := range s.out.Reps {
		jobs := s.twin.points(r.Seed)
		t := measure(func() ([]*core.Result, error) { return s.twin.execute(jobs) })
		_, _, err := verify(t.results, t.err, o.oracle(jobs))
		s.attempt(err, "serial twin (seed %d)", r.Seed)
		if err != nil {
			return nil
		}
		walls = append(walls, ms(t.wall))
	}
	return walls
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tracedPass runs one extra, traced repetition of seed 0 and fills the
// per-layer metrics. End-to-end metrics never come from it. The traced
// repetition must commit exactly what the untraced ones did.
func (s *state) tracedPass(o *options, tr *tracer, probes map[string]float64, states []*state) {
	w := s.w
	jobs := w.points(subSeed(o.seed, 0))

	// The overhead base: the same work through the same serial loop,
	// untraced, immediately before the traced repetition so machine drift
	// does not read as overhead. For a sweep it is also the serial sum.
	runtime.GC()
	base := w.serialLoop(jobs, nil, -1)
	_, _, err := verify(base.results, base.err, s.oracle0)
	s.attempt(err, "untraced serial loop")
	baseMs := ms(base.assemble + base.run)

	runtime.GC()
	root := tr.begin("bench.run", "bench", w.name, -1)
	t := w.serialLoop(jobs, tr, root)
	q := tr.begin("timewarp.sequential", "timewarp", w.name, root)
	ref := oracleFor(jobs)
	t.sequential = tr.end(q)
	tr.end(root)

	got, modeledMs, err := verify(t.results, t.err, s.oracle0)
	if err == nil && len(s.out.Reps) > 0 {
		if d := fmt.Sprintf("%016x", got.digest); d != s.out.Reps[0].Digest {
			err = fmt.Errorf("traced digest %s differs from the untraced %s", d, s.out.Reps[0].Digest)
		} else if modeledMs != s.out.Reps[0].ModeledMs {
			err = fmt.Errorf("traced modeled time %vms differs from the untraced %vms", modeledMs, s.out.Reps[0].ModeledMs)
		}
	}
	s.attempt(err, "traced rep")
	if err != nil {
		return
	}

	var sum core.Result // counters and modeled times summed over points
	for _, r := range t.results {
		sum.ProcessedEvents += r.ProcessedEvents
		sum.RolledBackEvents += r.RolledBackEvents
		sum.Rollbacks += r.Rollbacks
		sum.GVTComputations += r.GVTComputations
		sum.GVTRounds += r.GVTRounds
		sum.GVTControlMsgs += r.GVTControlMsgs
		sum.GVTPiggybacks += r.GVTPiggybacks
		sum.GVTDoorbells += r.GVTDoorbells
		sum.GVTTokensOnNIC += r.GVTTokensOnNIC
		sum.GVTConvTotal += r.GVTConvTotal
		sum.GVTConvCount += r.GVTConvCount
		sum.HostEventTime += r.HostEventTime
		sum.HostCommTime += r.HostCommTime
		sum.HostGVTTime += r.HostGVTTime
		sum.HostRollbackTime += r.HostRollbackTime
		sum.FlowBlocked += r.FlowBlocked
		sum.CreditMsgs += r.CreditMsgs
		sum.CreditRepair += r.CreditRepair
		sum.BIPGaps += r.BIPGaps
		sum.WirePackets += r.WirePackets
		sum.DroppedInPlace += r.DroppedInPlace
		sum.AntisFiltered += r.AntisFiltered
		sum.AntisBuilt += r.AntisBuilt
		sum.BatchFrames += r.BatchFrames
		sum.BatchSubs += r.BatchSubs
		sum.BusCrossings += r.BusCrossings
		sum.HostUtil += r.HostUtil
		sum.BusUtil += r.BusUtil
		sum.NICUtil += r.NICUtil
	}
	points := float64(len(t.results))
	hostTotal := float64(sum.HostEventTime + sum.HostCommTime + sum.HostGVTTime + sum.HostRollbackTime)

	apps := t.execute.dur() + t.save.dur() + t.restore.dur()
	self := t.run - apps
	wallP50 := s.out.EndToEnd["wall_ms_p50"].Value

	v := map[string]float64{
		"core.assemble_ms":       ms(t.assemble),
		"core.run_ms":            ms(t.run),
		"core.self_ms":           ms(self),
		"core.host_ns_per_event": ratio(float64(self.Nanoseconds()), float64(sum.ProcessedEvents)),
		"core.digest_us":         digestUs(jobs),

		"apps.build_ms":      ms(t.build.dur()),
		"apps.execute_ms":    ms(t.execute.dur()),
		"apps.execute_calls": float64(t.execute.calls),
		"apps.save_ms":       ms(t.save.dur()),
		"apps.restore_ms":    ms(t.restore.dur()),
		"apps.restore_calls": float64(t.restore.calls),

		"timewarp.processed":      float64(sum.ProcessedEvents),
		"timewarp.rolled_back":    float64(sum.RolledBackEvents),
		"timewarp.rollbacks":      float64(sum.Rollbacks),
		"timewarp.efficiency":     ratio(float64(got.events), float64(sum.ProcessedEvents)),
		"timewarp.rollback_depth": sum.RollbackDepth(),
		"timewarp.seq_ns_event":   ratio(float64(t.sequential.Nanoseconds()), float64(ref.events)),

		"des.events":    float64(t.desEvents),
		"des.est_share": ratio(float64(t.desEvents)*probes["des.step_ns_d1k"], float64(t.run.Nanoseconds())),

		"gvt.computations":    float64(sum.GVTComputations),
		"gvt.rounds":          float64(sum.GVTRounds),
		"gvt.control_msgs":    float64(sum.GVTControlMsgs),
		"gvt.piggybacks":      float64(sum.GVTPiggybacks),
		"gvt.doorbells":       float64(sum.GVTDoorbells),
		"gvt.tokens_on_nic":   float64(sum.GVTTokensOnNIC),
		"gvt.conv_avg_us":     float64(sum.GVTConvAvg()) / 1e3,
		"gvt.host_time_share": ratio(float64(sum.HostGVTTime), hostTotal),

		"mpich.flow_blocked":  float64(sum.FlowBlocked),
		"mpich.credit_msgs":   float64(sum.CreditMsgs),
		"mpich.credit_repair": float64(sum.CreditRepair),
		"bip.gaps":            float64(sum.BIPGaps),

		"nic.wire_packets":     float64(sum.WirePackets),
		"nic.dropped_in_place": float64(sum.DroppedInPlace),
		"nic.antis_filtered":   float64(sum.AntisFiltered),
		"nic.drop_rate_pct":    100 * ratio(float64(sum.DroppedInPlace), float64(sum.AntisBuilt)),
		"nic.batch_frames":     float64(sum.BatchFrames),
		"nic.subs_per_frame":   ratio(float64(sum.BatchSubs), float64(sum.BatchFrames)),
		"nic.util":             sum.NICUtil / points,

		"hostmodel.util":           sum.HostUtil / points,
		"hostmodel.comm_share":     ratio(float64(sum.HostCommTime), hostTotal),
		"hostmodel.rollback_share": ratio(float64(sum.HostRollbackTime), hostTotal),
		"iobus.crossings":          float64(sum.BusCrossings),
		"iobus.util":               sum.BusUtil / points,

		"trace.overhead_pct": 100 * (ratio(ms(t.assemble+t.build.dur()+t.run), baseMs) - 1),
	}
	if w.sweep {
		v["runner.points"] = points
		v["runner.points_per_s"] = ratio(points, wallP50/1e3)
		v["runner.serial_sum_ms"] = baseMs
		v["runner.parallel_eff"] = ratio(baseMs, sweepWorkers*wallP50)
	}
	if s.twin != nil {
		if twin := s.twinWalls(o, states); len(twin) == len(s.out.Reps) {
			speedups := make([]float64, len(twin))
			for i, r := range s.out.Reps {
				speedups[i] = twin[i] / r.WallMs
			}
			v["des.shard_speedup"] = median(speedups)
		}
	}

	s.out.PerLayer = make(map[string]metricValue, len(perLayer))
	used := 0
	for _, m := range perLayer {
		x, ok := v[m.Name]
		if ok {
			used++
		} else {
			x = probes[m.Name] // a probe, or zero where the layer does not apply
		}
		s.out.PerLayer[m.Name] = metricValue{Value: x, Unit: m.Unit}
	}
	if used != len(v) {
		panic("bench: a per-layer value was computed under a name the catalogue does not list")
	}
}
