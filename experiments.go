package nicwarp

import (
	"fmt"

	"nicwarp/internal/fault"
	"nicwarp/internal/runner"
	"nicwarp/internal/simnet"
	"nicwarp/internal/stats"
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
	// Shards is the per-point shard count; 0 or 1 means serial. It is pure
	// execution strategy: tables and digests are identical at any value,
	// which is why it rides on the runner (runner.Runner.Exec) rather than
	// in the job configs, and never reaches the cache key.
	Shards int
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

// netFor builds the Config.Net for the opts topology: the zero value for
// the crossbar (WithDefaults fills the fabric timing, keeping crossbar
// digests identical to configs that predate the topology field), the full
// fabric defaults plus the topology otherwise.
func netFor(o FigureOpts) simnet.Config {
	if o.Topology == TopoCrossbar {
		return simnet.Config{}
	}
	net := simnet.DefaultConfig()
	net.Topology = o.Topology
	return net
}

// scaleNet is netFor with the fat tree as the fallback instead of the
// crossbar: the scaling experiment sweeps to 1024 nodes, where a
// single-stage crossbar stops being a credible switch.
func scaleNet(o FigureOpts) simnet.Config {
	net := simnet.DefaultConfig()
	net.Topology = o.Topology
	if net.Topology == TopoCrossbar {
		net.Topology = TopoFatTree
	}
	return net
}

// GVTPeriods is the GVT_COUNT sweep used by Figures 4 and 5 (the paper
// sweeps 1 to 100000 on a log axis).
var GVTPeriods = []int{1, 3, 10, 30, 100, 1000, 10000, 100000}

// PoliceStations is the station sweep of Figures 7 and 8.
var PoliceStations = []int{900, 1000, 2000, 3000, 4000}

// RAIDRequestCounts is the request sweep of Figure 6.
var RAIDRequestCounts = []int{50000, 100000, 200000, 400000}

// GVTRow is one point of a Figure 4/5 sweep.
type GVTRow struct {
	Period      int
	HostSec     float64 // execution time, host Mattern (WARPED)
	NICSec      float64 // execution time, NIC-GVT
	HostRounds  int64
	NICRounds   int64
	HostCtrl    int64 // dedicated GVT control messages (host only)
	NICPiggy    int64 // piggybacked handshakes (NIC only)
	HostGVTTime float64
	NICGVTTime  float64
}

// CancelRow is one point of a Figure 6/7/8 sweep.
type CancelRow struct {
	X               int     // requests (RAID) or stations (POLICE)
	BaseSec         float64 // execution time without early cancellation
	CancelSec       float64 // execution time with early cancellation
	ImprovementPct  float64 // Figures 6a/7a
	BaseMsgs        int64   // messages generated, baseline (Figures 6b/8)
	CancelMsgs      int64   // messages generated, with cancellation
	DroppedInPlace  int64
	NICDropRatePct  float64 // Figure 7b
	BaseRollbacks   int64
	CancelRollbacks int64
}

// ---- sweep expansion and folding ----
//
// Each sweep is expanded into a flat batch of independent experiment points
// (runner.Job) and folded back into figure rows positionally. The expansion
// order is load-bearing: fold functions consume results pairwise in the
// exact order the job builders emit them, which is what lets the serial
// loop, the parallel pool and a cache-warm replay produce byte-identical
// tables.

// gvtSweepJobs expands one application family across GVTPeriods under both
// GVT implementations: for each period, a host-Mattern point then a NIC-GVT
// point.
func gvtSweepJobs(prefix string, app func() App, opts FigureOpts) []runner.Job {
	opts = opts.withDefaults()
	var jobs []runner.Job
	for _, period := range GVTPeriods {
		for _, mode := range []GVTMode{GVTHostMattern, GVTNIC} {
			jobs = append(jobs, runner.Job{
				Name: fmt.Sprintf("%s/period=%d/%v", prefix, period, mode),
				Config: Config{
					App:       app(),
					Nodes:     opts.Nodes,
					Seed:      opts.Seed,
					GVT:       mode,
					GVTPeriod: period,
					Net:       netFor(opts),
				},
			})
		}
	}
	return jobs
}

// foldGVTRows folds gvtSweepJobs results (host/NIC pairs per period) back
// into rows.
func foldGVTRows(results []runner.Result) ([]GVTRow, error) {
	if len(results)%2 != 0 {
		return nil, fmt.Errorf("gvt sweep: odd result count %d", len(results))
	}
	var rows []GVTRow
	for i := 0; i+1 < len(results); i += 2 {
		host, nic := results[i], results[i+1]
		if host.Err != nil {
			return nil, host.Err
		}
		if nic.Err != nil {
			return nil, nic.Err
		}
		rows = append(rows, GVTRow{
			Period:      host.Job.Config.GVTPeriod,
			HostSec:     host.Res.ExecTime.Seconds(),
			NICSec:      nic.Res.ExecTime.Seconds(),
			HostRounds:  host.Res.GVTRounds,
			NICRounds:   nic.Res.GVTRounds,
			HostCtrl:    host.Res.GVTControlMsgs,
			NICPiggy:    nic.Res.GVTPiggybacks,
			HostGVTTime: host.Res.HostGVTTime.Seconds(),
			NICGVTTime:  nic.Res.HostGVTTime.Seconds(),
		})
	}
	return rows, nil
}

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

// scaleSweepJobs expands the scaling experiment: for each node count, a
// ring NIC-GVT point then a tree NIC-GVT point, on the multi-stage fabric.
func scaleSweepJobs(prefix string, opts FigureOpts) []runner.Job {
	o := opts.withDefaults()
	var jobs []runner.Job
	for _, n := range ScaleNodeCounts(o) {
		for _, mode := range []GVTMode{GVTNIC, GVTNICTree} {
			jobs = append(jobs, runner.Job{
				Name: fmt.Sprintf("%s/nodes=%d/%v", prefix, n, mode),
				Config: Config{
					App:       scaleApp(o, n),
					Nodes:     n,
					Seed:      o.Seed,
					GVT:       mode,
					GVTPeriod: 100,
					Net:       scaleNet(o),
				},
			})
		}
	}
	return jobs
}

// ScaleRow is one node count of the scaling sweep: the ring and tree GVT
// reductions compared on execution time, GVT convergence latency (the
// O(n)-hops vs O(log n)-hops headline), rounds and rollback depth.
type ScaleRow struct {
	Nodes       int
	RingSec     float64
	TreeSec     float64
	RingConvUs  float64 // mean initiate-to-commit latency, microseconds
	TreeConvUs  float64
	RingRounds  int64
	TreeRounds  int64
	RingRbDepth float64 // mean events undone per rollback
	TreeRbDepth float64
}

// foldScaleRows folds scaleSweepJobs results (ring/tree pairs per node
// count) back into rows.
func foldScaleRows(xs []int, results []runner.Result) ([]ScaleRow, error) {
	if len(results) != 2*len(xs) {
		return nil, fmt.Errorf("scale sweep: %d results for %d node counts", len(results), len(xs))
	}
	var rows []ScaleRow
	for i, n := range xs {
		ring, tree := results[2*i], results[2*i+1]
		if ring.Err != nil {
			return nil, ring.Err
		}
		if tree.Err != nil {
			return nil, tree.Err
		}
		rows = append(rows, ScaleRow{
			Nodes:       n,
			RingSec:     ring.Res.ExecTime.Seconds(),
			TreeSec:     tree.Res.ExecTime.Seconds(),
			RingConvUs:  float64(ring.Res.GVTConvAvg()) / 1e3,
			TreeConvUs:  float64(tree.Res.GVTConvAvg()) / 1e3,
			RingRounds:  ring.Res.GVTRounds,
			TreeRounds:  tree.Res.GVTRounds,
			RingRbDepth: ring.Res.RollbackDepth(),
			TreeRbDepth: tree.Res.RollbackDepth(),
		})
	}
	return rows, nil
}

// ScaleTable renders the scaling sweep. Node counts span three orders of
// magnitude, so the numeric columns are right-aligned (the committed
// crossbar tables keep their historical left alignment).
func ScaleTable(rows []ScaleRow) *stats.Table {
	t := stats.NewTable("nodes", "ring_sec", "tree_sec", "ring_conv_us", "tree_conv_us",
		"ring_rounds", "tree_rounds", "ring_rb_depth", "tree_rb_depth").AlignRight()
	for _, r := range rows {
		t.AddRow(r.Nodes, r.RingSec, r.TreeSec, r.RingConvUs, r.TreeConvUs,
			r.RingRounds, r.TreeRounds, r.RingRbDepth, r.TreeRbDepth)
	}
	return t
}

// cancelSweepJobs expands one application family across an x-axis with
// early cancellation off and on: for each x, a baseline point then a
// cancellation point. Every early-cancellation point in this file checks
// itself against the sequential oracle, so no committed figure can come
// from a run the offload changed.
func cancelSweepJobs(prefix string, app func(x int) App, xs []int, opts FigureOpts) []runner.Job {
	opts = opts.withDefaults()
	var jobs []runner.Job
	for _, x := range xs {
		for _, cancel := range []bool{false, true} {
			variant := "base"
			if cancel {
				variant = "cancel"
			}
			jobs = append(jobs, runner.Job{
				Name: fmt.Sprintf("%s/x=%d/%s", prefix, x, variant),
				Config: Config{
					App:          app(x),
					Nodes:        opts.Nodes,
					Seed:         opts.Seed,
					GVT:          GVTHostMattern,
					GVTPeriod:    1000,
					EarlyCancel:  cancel,
					VerifyOracle: cancel,
					Net:          netFor(opts),
				},
			})
		}
	}
	return jobs
}

// foldCancelRows folds cancelSweepJobs results (base/cancel pairs, one per
// x) back into rows.
func foldCancelRows(xs []int, results []runner.Result) ([]CancelRow, error) {
	if len(results) != 2*len(xs) {
		return nil, fmt.Errorf("cancel sweep: %d results for %d x values", len(results), len(xs))
	}
	var rows []CancelRow
	for i, x := range xs {
		base, cancel := results[2*i], results[2*i+1]
		if base.Err != nil {
			return nil, base.Err
		}
		if cancel.Err != nil {
			return nil, cancel.Err
		}
		row := CancelRow{
			X:               x,
			BaseSec:         base.Res.ExecTime.Seconds(),
			CancelSec:       cancel.Res.ExecTime.Seconds(),
			BaseMsgs:        base.Res.EventMsgsBuilt,
			CancelMsgs:      cancel.Res.EventMsgsBuilt,
			DroppedInPlace:  cancel.Res.DroppedInPlace,
			NICDropRatePct:  cancel.Res.NICDropRate(),
			BaseRollbacks:   base.Res.Rollbacks,
			CancelRollbacks: cancel.Res.Rollbacks,
		}
		row.ImprovementPct = 100 * (row.BaseSec - row.CancelSec) / row.BaseSec
		rows = append(rows, row)
	}
	return rows, nil
}

// GVTTable renders a Figure 4/5 sweep.
func GVTTable(rows []GVTRow) *stats.Table {
	t := stats.NewTable("gvt_period", "warped_sec", "nicgvt_sec", "warped_rounds", "nicgvt_rounds", "warped_ctrl_msgs", "nicgvt_piggybacks")
	for _, r := range rows {
		t.AddRow(r.Period, r.HostSec, r.NICSec, r.HostRounds, r.NICRounds, r.HostCtrl, r.NICPiggy)
	}
	return t
}

// CancelTable renders a Figure 6/7/8 sweep.
func CancelTable(rows []CancelRow, xName string) *stats.Table {
	t := stats.NewTable(xName, "warped_sec", "cancel_sec", "improvement_pct",
		"warped_msgs", "cancel_msgs", "dropped_in_place", "nic_drop_rate_pct")
	for _, r := range rows {
		t.AddRow(r.X, r.BaseSec, r.CancelSec, r.ImprovementPct,
			r.BaseMsgs, r.CancelMsgs, r.DroppedInPlace, r.NICDropRatePct)
	}
	return t
}

// AblationRow is a generic (label, exec time) result row.
type AblationRow struct {
	Label string
	Sec   float64
	Extra map[string]float64
}

// AblationTable renders ablation rows with their extra columns.
func AblationTable(rows []AblationRow, extras ...string) *stats.Table {
	header := append([]string{"variant", "exec_sec"}, extras...)
	t := stats.NewTable(header...)
	for _, r := range rows {
		cells := []interface{}{r.Label, r.Sec}
		for _, e := range extras {
			cells = append(cells, r.Extra[e])
		}
		t.AddRow(cells...)
	}
	return t
}

// ---- ablation definitions ----

// ablationVariant is one labelled point of an ablation sweep.
type ablationVariant struct {
	label string
	cfg   Config
}

// ablationDef declares one ablation experiment: its labelled config
// variants and how to extract the extra columns from a result.
type ablationDef struct {
	name        string // registry name ("abl-nic-speed")
	output      string // results file stem ("ablation_nic_speed")
	description string
	extras      []string // extra table columns, in order
	variants    func(o FigureOpts) []ablationVariant
	extract     func(res *Result) map[string]float64
}

// jobs expands the ablation into runner jobs, one per variant.
func (a ablationDef) jobs(opts FigureOpts) []runner.Job {
	o := opts.withDefaults()
	var jobs []runner.Job
	for _, v := range a.variants(o) {
		jobs = append(jobs, runner.Job{Name: a.name + "/" + v.label, Config: v.cfg})
	}
	return jobs
}

// fold rebuilds the ablation rows from results in variant order.
func (a ablationDef) fold(opts FigureOpts, results []runner.Result) ([]AblationRow, error) {
	variants := a.variants(opts.withDefaults())
	if len(results) != len(variants) {
		return nil, fmt.Errorf("%s: %d results for %d variants", a.name, len(results), len(variants))
	}
	var rows []AblationRow
	for i, v := range variants {
		if results[i].Err != nil {
			return nil, results[i].Err
		}
		res := results[i].Res
		rows = append(rows, AblationRow{Label: v.label, Sec: res.ExecTime.Seconds(), Extra: a.extract(res)})
	}
	return rows, nil
}

// experiment adapts the definition to a registry entry.
func (a ablationDef) experiment() Experiment {
	return Experiment{
		Name:        a.name,
		Output:      a.output,
		Description: a.description,
		Jobs:        a.jobs,
		Render: func(opts FigureOpts, results []runner.Result) (*stats.Table, error) {
			rows, err := a.fold(opts, results)
			if err != nil {
				return nil, err
			}
			return AblationTable(rows, a.extras...), nil
		},
	}
}

// ablationDefs lists the ablation studies of DESIGN.md, in suite order.
func ablationDefs() []ablationDef {
	return []ablationDef{
		{
			name:        "abl-nic-speed",
			output:      "ablation_nic_speed",
			description: "Ablation: NIC processor speed",
			extras:      []string{"dropRatePct", "nicUtil"},
			variants: func(o FigureOpts) []ablationVariant {
				var vs []ablationVariant
				for _, mhz := range []float64{33, 66, 132, 264, 528} {
					cfg := Config{
						App:          Police(PoliceConfig(o.scaled(900))),
						Nodes:        o.Nodes,
						Seed:         o.Seed,
						GVT:          GVTNIC,
						GVTPeriod:    100,
						EarlyCancel:  true,
						VerifyOracle: true,
					}
					cfg = cfg.WithDefaults()
					cfg.NIC.ClockHz = mhz * 1e6
					vs = append(vs, ablationVariant{fmt.Sprintf("%.0fMHz", mhz), cfg})
				}
				return vs
			},
			extract: func(res *Result) map[string]float64 {
				return map[string]float64{"dropRatePct": res.NICDropRate(), "nicUtil": res.NICUtil}
			},
		},
		{
			name:        "abl-drop-buffer",
			output:      "ablation_drop_buffer",
			description: "Ablation: drop-buffer capacity",
			extras:      []string{"declined", "dropped"},
			variants: func(o FigureOpts) []ablationVariant {
				var vs []ablationVariant
				for _, cap := range []int{2, 10, 64, 1024} {
					vs = append(vs, ablationVariant{fmt.Sprintf("cap=%d", cap), Config{
						App:           Police(PoliceConfig(o.scaled(900))),
						Nodes:         o.Nodes,
						Seed:          o.Seed,
						GVT:           GVTHostMattern,
						GVTPeriod:     1000,
						EarlyCancel:   true,
						DropBufferCap: cap,
						VerifyOracle:  true,
					}})
				}
				return vs
			},
			extract: func(res *Result) map[string]float64 {
				return map[string]float64{
					"declined": float64(res.DropsDeclined),
					"dropped":  float64(res.DroppedInPlace),
				}
			},
		},
		{
			name:        "abl-cancel-policy",
			output:      "ablation_cancellation_policy",
			description: "Ablation: cancellation policy",
			extras:      []string{"antis", "rollbacks"},
			variants: func(o FigureOpts) []ablationVariant {
				var vs []ablationVariant
				for _, pol := range []CancellationPolicy{Aggressive, Lazy} {
					vs = append(vs, ablationVariant{pol.String(), Config{
						App:          RAID(RAIDCancelConfig(o.scaled(20000))),
						Nodes:        o.Nodes,
						Seed:         o.Seed,
						GVT:          GVTHostMattern,
						GVTPeriod:    100,
						Cancellation: pol,
					}})
				}
				return vs
			},
			extract: func(res *Result) map[string]float64 {
				return map[string]float64{
					"antis":     float64(res.AntisBuilt),
					"rollbacks": float64(res.Rollbacks),
				}
			},
		},
		{
			name:        "abl-gvt-algorithms",
			output:      "ablation_gvt_algorithms",
			description: "Ablation: GVT algorithms (pGVT vs Mattern vs NIC-GVT)",
			extras:      []string{"ctrlMsgs", "computations"},
			variants: func(o FigureOpts) []ablationVariant {
				var vs []ablationVariant
				for _, mode := range []GVTMode{GVTPGVT, GVTHostMattern, GVTNIC} {
					vs = append(vs, ablationVariant{mode.String(), Config{
						App:       RAID(RAIDGVTConfig(o.scaled(20000))),
						Nodes:     o.Nodes,
						Seed:      o.Seed,
						GVT:       mode,
						GVTPeriod: 10,
					}})
				}
				return vs
			},
			extract: func(res *Result) map[string]float64 {
				return map[string]float64{
					"ctrlMsgs":     float64(res.GVTControlMsgs),
					"computations": float64(res.GVTComputations),
				}
			},
		},
		{
			name:        "abl-rx-buffer",
			output:      "ablation_rx_buffer",
			description: "Ablation: NIC receive-buffer depth",
			extras:      []string{"dropRatePct", "dropped"},
			variants: func(o FigureOpts) []ablationVariant {
				var vs []ablationVariant
				for _, cap := range []int{6, 12, 28, 96} {
					cfg := Config{
						App:          Police(PoliceConfig(o.scaled(900))),
						Nodes:        o.Nodes,
						Seed:         o.Seed,
						GVT:          GVTHostMattern,
						GVTPeriod:    1000,
						EarlyCancel:  true,
						VerifyOracle: true,
					}
					cfg = cfg.WithDefaults()
					cfg.NIC.RxQueueCap = cap
					vs = append(vs, ablationVariant{fmt.Sprintf("rx=%d", cap), cfg})
				}
				return vs
			},
			extract: func(res *Result) map[string]float64 {
				return map[string]float64{
					"dropRatePct": res.NICDropRate(),
					"dropped":     float64(res.DroppedInPlace),
				}
			},
		},
		{
			name:        "abl-gvt-tree",
			output:      "ablation_gvt_tree",
			description: "Ablation: ring vs tree NIC GVT reduction at one node count (fat-tree fabric)",
			extras:      []string{"convUs", "rounds", "rbDepth", "computations"},
			variants: func(o FigureOpts) []ablationVariant {
				var vs []ablationVariant
				for _, mode := range []GVTMode{GVTNIC, GVTNICTree} {
					vs = append(vs, ablationVariant{mode.String(), Config{
						App:             scaleApp(o, o.Nodes),
						Nodes:           o.Nodes,
						Seed:            o.Seed,
						GVT:             mode,
						GVTPeriod:       100,
						CheckInvariants: true,
						Net:             scaleNet(o),
					}})
				}
				return vs
			},
			extract: func(res *Result) map[string]float64 {
				return map[string]float64{
					"convUs":       float64(res.GVTConvAvg()) / 1e3,
					"rounds":       float64(res.GVTRounds),
					"rbDepth":      res.RollbackDepth(),
					"computations": float64(res.GVTComputations),
				}
			},
		},
		{
			name:        "abl-stress-faults",
			output:      "ablation_stress_faults",
			description: "Ablation: fault-plane scenarios (overhead of loss-free wire chaos)",
			extras:      []string{"faults", "bipDuplicates", "lateFilled", "rollbacks"},
			variants: func(o FigureOpts) []ablationVariant {
				var vs []ablationVariant
				for _, sc := range append([]string{"none"}, fault.Scenarios()...) {
					plan, err := fault.PlanFor(sc, o.Seed)
					if err != nil {
						panic(err) // registry names come from fault.Scenarios
					}
					cfg := Config{
						App:             PHOLD(PHOLDParams{Objects: 16, Population: 1, Hops: o.scaled(400), MeanDelay: 40, Locality: 0.2}),
						Nodes:           o.Nodes,
						Seed:            o.Seed,
						GVT:             GVTNIC,
						GVTPeriod:       50,
						EarlyCancel:     true,
						VerifyOracle:    true,
						CheckInvariants: true,
					}
					cfg.Fault = plan
					vs = append(vs, ablationVariant{sc, cfg})
				}
				return vs
			},
			extract: func(res *Result) map[string]float64 {
				return map[string]float64{
					"faults":        float64(res.FaultsInjected),
					"bipDuplicates": float64(res.BIPDuplicates),
					"lateFilled":    float64(res.BIPLateFilled),
					"rollbacks":     float64(res.Rollbacks),
				}
			},
		},
		{
			name:        "abl-piggyback-patience",
			output:      "ablation_piggyback_patience",
			description: "Ablation: NIC-GVT piggyback patience",
			extras:      []string{"piggybacks", "doorbells", "rounds"},
			variants: func(o FigureOpts) []ablationVariant {
				var vs []ablationVariant
				for _, us := range []int{10, 50, 150, 500, 2000} {
					cfg := Config{
						App:       RAID(RAIDGVTConfig(o.scaled(20000))),
						Nodes:     o.Nodes,
						Seed:      o.Seed,
						GVT:       GVTNIC,
						GVTPeriod: 1,
					}
					cfg.GVTFallbackDelay = vtime.ModelTime(us) * vtime.Microsecond
					vs = append(vs, ablationVariant{fmt.Sprintf("%dus", us), cfg})
				}
				return vs
			},
			extract: func(res *Result) map[string]float64 {
				return map[string]float64{
					"piggybacks": float64(res.GVTPiggybacks),
					"doorbells":  float64(res.GVTDoorbells),
					"rounds":     float64(res.GVTRounds),
				}
			},
		},
		{
			name:        "abl-batching",
			output:      "ablation_batching",
			description: "Ablation: NIC send batching and anti coalescing (frame capacity sweep)",
			extras:      []string{"wirePkts", "busXings", "frames", "subsPerFrame", "nicUtil"},
			variants: func(o FigureOpts) []ablationVariant {
				var vs []ablationVariant
				for _, bm := range []int{1, 2, 4, 8, 16} {
					cfg := Config{
						App:          Police(PoliceConfig(o.scaled(900))),
						Nodes:        o.Nodes,
						Seed:         o.Seed,
						GVT:          GVTNIC,
						GVTPeriod:    100,
						EarlyCancel:  true,
						VerifyOracle: true,
					}
					cfg = cfg.WithDefaults()
					cfg.NIC.BatchMax = bm
					if bm > 1 {
						cfg.NIC.FlushHorizon = 20 * vtime.Microsecond
					}
					vs = append(vs, ablationVariant{fmt.Sprintf("batch=%d", bm), cfg})
				}
				return vs
			},
			extract: func(res *Result) map[string]float64 {
				subsPerFrame := 0.0
				if res.BatchFrames > 0 {
					subsPerFrame = float64(res.BatchSubs) / float64(res.BatchFrames)
				}
				return map[string]float64{
					"wirePkts":     float64(res.WirePackets),
					"busXings":     float64(res.BusCrossings),
					"frames":       float64(res.BatchFrames),
					"subsPerFrame": subsPerFrame,
					"nicUtil":      res.NICUtil,
				}
			},
		},
	}
}
