package nicwarp

import (
	"fmt"
	"strconv"

	"nicwarp/internal/fault"
	"nicwarp/internal/nic"
	"nicwarp/internal/runner"
	"nicwarp/internal/simnet"
	"nicwarp/internal/vtime"
)

// FigureOpts scales the paper's experiments. The zero value reproduces the
// paper's parameters where the paper states them (8 nodes, 16-source RAID,
// 900–4000 station POLICE) at workload sizes chosen so the full suite runs
// in minutes of real time; Scale shrinks or grows the workloads for quick
// smoke runs or higher-fidelity sweeps.
type FigureOpts struct {
	// Nodes is the cluster size; 0 means the paper's 8.
	Nodes int
	// Seed drives model randomness; 0 means 1.
	Seed uint64
	// Scale multiplies workload sizes (requests, incidents); 0 means 1.
	Scale float64
	// Topology selects the interconnect model for every experiment point;
	// the zero value is the crossbar the paper measured on, which keeps the
	// default figure digests identical to configs that predate the field.
	// The scaling experiment ("figscale") defaults to the fat tree instead:
	// a 1024-port crossbar is not a buildable switch.
	Topology Topology
}

func (o FigureOpts) withDefaults() FigureOpts {
	if o.Nodes == 0 {
		o.Nodes = 8
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Scale == 0 {
		o.Scale = 1
	}
	return o
}

func (o FigureOpts) scaled(n int) int {
	v := int(float64(n) * o.Scale)
	if v < 1 {
		v = 1
	}
	return v
}

// netFor builds the Config.Net for the opts topology.
func netFor(o FigureOpts) simnet.Config { return simnet.Config{Topology: o.Topology} }

// scaleNet is netFor with the fat tree as the fallback instead of the
// crossbar: the scaling experiment sweeps to 1024 nodes, where a
// single-stage crossbar stops being a credible switch.
func scaleNet(o FigureOpts) simnet.Config {
	if o.Topology == TopoCrossbar {
		o.Topology = TopoFatTree
	}
	return netFor(o)
}

// GVTPeriods is the GVT_COUNT sweep used by Figures 4 and 5 (the paper
// sweeps 1 to 100000 on a log axis).
var GVTPeriods = []int{1, 3, 10, 30, 100, 1000, 10000, 100000}

// PoliceStations is the station sweep of Figures 7 and 8.
var PoliceStations = []int{900, 1000, 2000, 3000, 4000}

// RAIDRequestCounts is the request sweep of Figure 6.
var RAIDRequestCounts = []int{50000, 100000, 200000, 400000}

// ScaleNodeCounts is the node axis of the scaling experiment ("figscale"),
// truncated by Scale so smoke runs (CI sweeps the registry at -scale 0.05)
// never pay for the large points: full scale reaches 1024 nodes, quarter
// scale 256, anything smaller stops at 64.
func ScaleNodeCounts(o FigureOpts) []int {
	switch {
	case o.Scale >= 1:
		return []int{8, 64, 256, 1024}
	case o.Scale >= 0.25:
		return []int{8, 64, 256}
	default:
		return []int{8, 64}
	}
}

// scaleApp builds the scaling workload at node count n: PHOLD with a fixed
// two objects per node, so per-node load stays constant while the cluster
// (and with it the GVT reduction span) grows.
func scaleApp(o FigureOpts, n int) App {
	return PHOLD(PHOLDParams{Objects: 2 * n, Population: 1, Hops: o.scaled(30), MeanDelay: 50, Locality: 0.2})
}

// point is the config every registry point starts from: app on the opts
// cluster under one GVT mode and period.
func (o FigureOpts) point(app App, mode GVTMode, period int) Config {
	return Config{App: app, Nodes: o.Nodes, Seed: o.Seed, GVT: mode, GVTPeriod: period}
}

// cancelPoint is point with early cancellation on. Every early-cancellation
// point checks itself against the sequential oracle, so no committed table
// can come from a run the offload changed.
func (o FigureOpts) cancelPoint(app App, mode GVTMode, period int) Config {
	cfg := o.point(app, mode, period)
	cfg.EarlyCancel, cfg.VerifyOracle = true, true
	return cfg
}

// row is one line of an experiment's table: the label in its first column
// and the points whose results fill the rest. Point names are relative to
// the experiment; Experiment.Jobs prefixes its name.
type row struct {
	label  string
	points []runner.Job
}

// add appends one point to the row.
func (r *row) add(name string, cfg Config) {
	r.points = append(r.points, runner.Job{Name: name, Config: cfg})
}

// variants is an ablation's rows: one single-point row per value, labelled
// and named fmt.Sprintf(format, value).
func variants[T any](format string, vals []T, cfg func(v T) Config) []row {
	rows := make([]row, len(vals))
	for i, v := range vals {
		rows[i].label = fmt.Sprintf(format, v)
		rows[i].add(rows[i].label, cfg(v))
	}
	return rows
}

// gvtSweep declares a Figure 4/5 experiment: one row per GVTPeriods entry,
// each a host-Mattern point then a NIC-GVT point of the same workload.
func gvtSweep(name, output, description string, app func(o FigureOpts) App) Experiment {
	return Experiment{
		Name:        name,
		Output:      output,
		Description: description,
		header: []string{"gvt_period", "warped_sec", "nicgvt_sec", "warped_rounds", "nicgvt_rounds",
			"warped_ctrl_msgs", "nicgvt_piggybacks"},
		rows: func(o FigureOpts) []row {
			var rows []row
			for _, period := range GVTPeriods {
				r := row{label: strconv.Itoa(period)}
				for _, mode := range []GVTMode{GVTHostMattern, GVTNIC} {
					cfg := o.point(app(o), mode, period)
					cfg.Net = netFor(o)
					r.add(fmt.Sprintf("period=%d/%v", period, mode), cfg)
				}
				rows = append(rows, r)
			}
			return rows
		},
		cells: func(r []*Result) []interface{} {
			host, nic := r[0], r[1]
			return []interface{}{host.ExecTime.Seconds(), nic.ExecTime.Seconds(),
				host.GVTRounds, nic.GVTRounds, host.GVTControlMsgs, nic.GVTPiggybacks}
		},
	}
}

// cancelSweep declares a Figure 6/7/8 experiment: one row per x (each of xs
// scaled by opts), a baseline point then an early-cancellation point.
func cancelSweep(name, output, description, xName string, xs []int, app func(x int) App) Experiment {
	return Experiment{
		Name:        name,
		Output:      output,
		Description: description,
		header: []string{xName, "warped_sec", "cancel_sec", "improvement_pct",
			"warped_msgs", "cancel_msgs", "dropped_in_place", "nic_drop_rate_pct"},
		rows: func(o FigureOpts) []row {
			var rows []row
			for _, x := range xs {
				x = o.scaled(x)
				r := row{label: strconv.Itoa(x)}
				base := o.point(app(x), GVTHostMattern, 1000)
				base.Net = netFor(o)
				r.add(fmt.Sprintf("x=%d/base", x), base)
				cancel := o.cancelPoint(app(x), GVTHostMattern, 1000)
				cancel.Net = netFor(o)
				r.add(fmt.Sprintf("x=%d/cancel", x), cancel)
				rows = append(rows, r)
			}
			return rows
		},
		cells: func(r []*Result) []interface{} {
			base, cancel := r[0], r[1]
			baseSec, cancelSec := base.ExecTime.Seconds(), cancel.ExecTime.Seconds()
			return []interface{}{baseSec, cancelSec, 100 * (baseSec - cancelSec) / baseSec,
				base.EventMsgsBuilt, cancel.EventMsgsBuilt, cancel.DroppedInPlace, cancel.NICDropRate()}
		},
	}
}

// figScale declares the scaling experiment: one row per ScaleNodeCounts
// entry, a ring NIC-GVT point then a tree NIC-GVT point on the multi-stage
// fabric, compared on execution time, GVT convergence latency (the
// O(n)-hops vs O(log n)-hops headline), rounds and rollback depth. Node
// counts span three orders of magnitude, so the numeric columns are
// right-aligned (the committed crossbar tables keep their historical left
// alignment).
func figScale() Experiment {
	return Experiment{
		Name:        "figscale",
		Output:      "figure_scale_gvt",
		Description: "Scaling: ring vs tree NIC GVT over node count (multi-stage fabric)",
		header: []string{"nodes", "ring_sec", "tree_sec", "ring_conv_us", "tree_conv_us",
			"ring_rounds", "tree_rounds", "ring_rb_depth", "tree_rb_depth"},
		alignRight: true,
		rows: func(o FigureOpts) []row {
			var rows []row
			for _, n := range ScaleNodeCounts(o) {
				r := row{label: strconv.Itoa(n)}
				for _, mode := range []GVTMode{GVTNIC, GVTNICTree} {
					cfg := o.point(scaleApp(o, n), mode, 100)
					cfg.Nodes, cfg.Net = n, scaleNet(o)
					r.add(fmt.Sprintf("nodes=%d/%v", n, mode), cfg)
				}
				rows = append(rows, r)
			}
			return rows
		},
		cells: func(r []*Result) []interface{} {
			ring, tree := r[0], r[1]
			return []interface{}{ring.ExecTime.Seconds(), tree.ExecTime.Seconds(),
				float64(ring.GVTConvAvg()) / 1e3, float64(tree.GVTConvAvg()) / 1e3,
				ring.GVTRounds, tree.GVTRounds, ring.RollbackDepth(), tree.RollbackDepth()}
		},
	}
}

// ablations declares the ablation studies of DESIGN.md, in suite order.
// Every row is one labelled variant; its cells are the execution time and
// the study's extras, each a float64 so every extra column prints %.4g.
func ablations() []Experiment {
	return []Experiment{
		{
			Name:        "abl-nic-speed",
			Output:      "ablation_nic_speed",
			Description: "Ablation: NIC processor speed",
			header:      []string{"variant", "exec_sec", "dropRatePct", "nicUtil"},
			rows: func(o FigureOpts) []row {
				return variants("%.0fMHz", []float64{33, 66, 132, 264, 528}, func(mhz float64) Config {
					cfg := o.cancelPoint(Police(PoliceConfig(o.scaled(900))), GVTNIC, 100).WithDefaults()
					cfg.NIC.ClockHz = mhz * 1e6
					return cfg
				})
			},
			cells: func(r []*Result) []interface{} {
				return []interface{}{r[0].ExecTime.Seconds(), r[0].NICDropRate(), r[0].NICUtil}
			},
		},
		{
			Name:        "abl-drop-buffer",
			Output:      "ablation_drop_buffer",
			Description: "Ablation: drop-buffer capacity",
			header:      []string{"variant", "exec_sec", "declined", "dropped"},
			rows: func(o FigureOpts) []row {
				return variants("cap=%d", []int{2, nic.PaperDropBufferCap, 64, 1024}, func(cap int) Config {
					cfg := o.cancelPoint(Police(PoliceConfig(o.scaled(900))), GVTHostMattern, 1000)
					cfg.DropBufferCap = cap
					return cfg
				})
			},
			cells: func(r []*Result) []interface{} {
				return []interface{}{r[0].ExecTime.Seconds(), float64(r[0].DropsDeclined), float64(r[0].DroppedInPlace)}
			},
		},
		{
			Name:        "abl-rx-buffer",
			Output:      "ablation_rx_buffer",
			Description: "Ablation: NIC receive-buffer depth",
			header:      []string{"variant", "exec_sec", "dropRatePct", "dropped"},
			rows: func(o FigureOpts) []row {
				return variants("rx=%d", []int{6, 12, 28, 96}, func(cap int) Config {
					cfg := o.cancelPoint(Police(PoliceConfig(o.scaled(900))), GVTHostMattern, 1000).WithDefaults()
					cfg.NIC.RxQueueCap = cap
					return cfg
				})
			},
			cells: func(r []*Result) []interface{} {
				return []interface{}{r[0].ExecTime.Seconds(), r[0].NICDropRate(), float64(r[0].DroppedInPlace)}
			},
		},
		{
			Name:        "abl-gvt-tree",
			Output:      "ablation_gvt_tree",
			Description: "Ablation: ring vs tree NIC GVT reduction at one node count (fat-tree fabric)",
			header:      []string{"variant", "exec_sec", "convUs", "rounds", "rbDepth", "computations"},
			rows: func(o FigureOpts) []row {
				return variants("%v", []GVTMode{GVTNIC, GVTNICTree}, func(mode GVTMode) Config {
					cfg := o.point(scaleApp(o, o.Nodes), mode, 100)
					cfg.CheckInvariants, cfg.Net = true, scaleNet(o)
					return cfg
				})
			},
			cells: func(r []*Result) []interface{} {
				return []interface{}{r[0].ExecTime.Seconds(), float64(r[0].GVTConvAvg()) / 1e3,
					float64(r[0].GVTRounds), r[0].RollbackDepth(), float64(r[0].GVTComputations)}
			},
		},
		{
			Name:        "abl-stress-faults",
			Output:      "ablation_stress_faults",
			Description: "Ablation: fault-plane scenarios (overhead of loss-free wire chaos)",
			header:      []string{"variant", "exec_sec", "faults", "bipDuplicates", "lateFilled", "rollbacks"},
			rows: func(o FigureOpts) []row {
				return variants("%s", append([]string{"none"}, fault.Scenarios()...), func(sc string) Config {
					plan, err := fault.PlanFor(sc, o.Seed)
					if err != nil {
						panic(err) // registry names come from fault.Scenarios
					}
					app := PHOLD(PHOLDParams{Objects: 16, Population: 1, Hops: o.scaled(400), MeanDelay: 40, Locality: 0.2})
					cfg := o.cancelPoint(app, GVTNIC, 50)
					cfg.CheckInvariants, cfg.Fault = true, plan
					return cfg
				})
			},
			cells: func(r []*Result) []interface{} {
				return []interface{}{r[0].ExecTime.Seconds(), float64(r[0].FaultsInjected),
					float64(r[0].BIPDuplicates), float64(r[0].BIPLateFilled), float64(r[0].Rollbacks)}
			},
		},
		{
			Name:        "abl-piggyback-patience",
			Output:      "ablation_piggyback_patience",
			Description: "Ablation: NIC-GVT piggyback patience",
			header:      []string{"variant", "exec_sec", "piggybacks", "doorbells", "rounds"},
			rows: func(o FigureOpts) []row {
				return variants("%dus", []int{10, 50, 150, 500, 2000}, func(us int) Config {
					cfg := o.point(RAID(RAIDGVTConfig(o.scaled(20000))), GVTNIC, 1)
					cfg.GVTFallbackDelay = vtime.ModelTime(us) * vtime.Microsecond
					return cfg
				})
			},
			cells: func(r []*Result) []interface{} {
				return []interface{}{r[0].ExecTime.Seconds(), float64(r[0].GVTPiggybacks),
					float64(r[0].GVTDoorbells), float64(r[0].GVTRounds)}
			},
		},
		{
			Name:        "abl-batching",
			Output:      "ablation_batching",
			Description: "Ablation: NIC send batching and anti coalescing (frame capacity sweep)",
			header:      []string{"variant", "exec_sec", "wirePkts", "busXings", "frames", "subsPerFrame", "nicUtil"},
			rows: func(o FigureOpts) []row {
				return variants("batch=%d", []int{1, 2, 4, 8, 16}, func(bm int) Config {
					cfg := o.cancelPoint(Police(PoliceConfig(o.scaled(900))), GVTNIC, 100).WithDefaults()
					cfg.NIC.BatchMax = bm
					if bm > 1 {
						cfg.NIC.FlushHorizon = 20 * vtime.Microsecond
					}
					return cfg
				})
			},
			cells: func(r []*Result) []interface{} {
				res := r[0]
				subsPerFrame := 0.0
				if res.BatchFrames > 0 {
					subsPerFrame = float64(res.BatchSubs) / float64(res.BatchFrames)
				}
				return []interface{}{res.ExecTime.Seconds(), float64(res.WirePackets), float64(res.BusCrossings),
					float64(res.BatchFrames), subsPerFrame, res.NICUtil}
			},
		},
	}
}
