package main

import (
	"nicwarp"
	"nicwarp/internal/runner"
	"nicwarp/internal/simnet"
	"nicwarp/internal/vtime"
)

// sizes holds every workload's size parameters. The benchmark always runs
// benchSizes; the test suite substitutes shrunken values through its own
// constructor, never through a flag, so a published number cannot come from
// a reduced workload by accident.
type sizes struct {
	RAIDRequests   int     // raid-hostgvt
	CancelStations int     // police-cancel
	BatchStations  int     // police-batch8
	PHOLDNodes     int     // phold-ft256-tree(+shards2)
	PHOLDHops      int     // phold-ft256-tree(+shards2)
	SweepScale     float64 // suite-sweep
}

// benchSizes are the sizes every published number uses: about one host
// second per repetition on a two-core machine.
func benchSizes() sizes {
	return sizes{
		RAIDRequests:   8000,
		CancelStations: 120,
		BatchStations:  2000,
		PHOLDNodes:     256,
		PHOLDHops:      90,
		SweepScale:     0.02,
	}
}

// workload is one named benchmark input.
type workload struct {
	name string
	why  string
	// points expands the workload for a seed: one job for a single
	// simulation, the whole batch for a sweep.
	points func(seed uint64) []runner.Job
	// sweep runs the points on a runner.Runner pool instead of through
	// nicwarp.Run; shards is the execution strategy of a single simulation
	// (1 = serial).
	sweep  bool
	shards int
	// twin names the serial workload whose digest this one must reproduce
	// (the sharded PHOLD run); empty otherwise.
	twin string
	// repSeconds is about how long one repetition takes on the two-core
	// reference machine. It only converts a -seconds budget into a fixed
	// repeat count (see repsFor).
	repSeconds float64
}

// single wraps one simulation config as a one-point workload expansion.
func single(name string, config func(seed uint64) nicwarp.Config) func(uint64) []runner.Job {
	return func(seed uint64) []runner.Job {
		return []runner.Job{{Name: name, Config: config(seed)}}
	}
}

// earlyCancelDropCap is the drop-buffer capacity every EarlyCancel workload
// uses. With the default capacity evictions orphan anti-messages and the run
// may legitimately deviate from the sequential oracle, which makes it an
// invalid timing target.
const earlyCancelDropCap = 4096

func policeCancelConfig(stations int, seed uint64) nicwarp.Config {
	return nicwarp.Config{
		App:           nicwarp.Police(nicwarp.PoliceConfig(stations)),
		Nodes:         8,
		Seed:          seed,
		GVT:           nicwarp.GVTNIC,
		GVTPeriod:     100,
		EarlyCancel:   true,
		DropBufferCap: earlyCancelDropCap,
	}
}

func pholdConfig(sz sizes, seed uint64) nicwarp.Config {
	net := simnet.DefaultConfig()
	net.Topology = nicwarp.TopoFatTree
	return nicwarp.Config{
		App: nicwarp.PHOLD(nicwarp.PHOLDParams{
			Objects: 2 * sz.PHOLDNodes, Population: 1, Hops: sz.PHOLDHops, MeanDelay: 50, Locality: 0.2,
		}),
		Nodes:     sz.PHOLDNodes,
		Seed:      seed,
		GVT:       nicwarp.GVTNICTree,
		GVTPeriod: 100,
		Net:       net,
	}
}

// workloads returns the six benchmark workloads at the given sizes, in the
// fixed order every report uses. The names are cited by later issues and
// must not change.
func workloads(sz sizes) []workload {
	return []workload{
		{
			name: "raid-hostgvt",
			why:  "Figure-4 pathology: host Mattern GVT at period 1 sends several control packets per committed event; gvt, core glue, mpich/bip/proto and the NIC forward path dominate, rollback does little",
			points: single("raid-hostgvt", func(seed uint64) nicwarp.Config {
				return nicwarp.Config{
					App:       nicwarp.RAID(nicwarp.RAIDGVTConfig(sz.RAIDRequests)),
					Nodes:     8,
					Seed:      seed,
					GVT:       nicwarp.GVTHostMattern,
					GVTPeriod: 1,
				}
			}),
			shards:     1,
			repSeconds: 1.2,
		},
		{
			name: "police-cancel",
			why:  "both paper offloads chained on congested POLICE (about 96% of events rolled back): timewarp rollback/annihilation, app state restore and the cancel firmware's send-queue scan; GVT traffic negligible",
			points: single("police-cancel", func(seed uint64) nicwarp.Config {
				return policeCancelConfig(sz.CancelStations, seed)
			}),
			shards:     1,
			repSeconds: 1.1,
		},
		{
			name: "police-batch8",
			why:  "same NIC send queue gathered into KindBatch frames (BatchMax 8, 20us flush horizon) instead of scanned for cancellation: proto batch framing and nic assembly dominate the NIC share",
			points: single("police-batch8", func(seed uint64) nicwarp.Config {
				cfg := policeCancelConfig(sz.BatchStations, seed).WithDefaults()
				cfg.NIC.BatchMax = 8
				cfg.NIC.FlushHorizon = 20 * vtime.Microsecond
				return cfg
			}),
			shards:     1,
			repSeconds: 1.15,
		},
		{
			name:       "phold-ft256-tree",
			why:        "scale regime: 256-node fat tree, tree-reduction NIC GVT, serial; des heap and multi-stage simnet arbitration at scale, large core assembly, little rollback or batching",
			points:     single("phold-ft256-tree", func(seed uint64) nicwarp.Config { return pholdConfig(sz, seed) }),
			shards:     1,
			repSeconds: 1.05,
		},
		{
			name:       "phold-ft256-tree-shards2",
			why:        "identical config under des.Group with two shards: the only place barrier/mailbox cost and any sharding gain can show; digest must equal the serial twin's",
			points:     single("phold-ft256-tree-shards2", func(seed uint64) nicwarp.Config { return pholdConfig(sz, seed) }),
			shards:     2,
			twin:       "phold-ft256-tree",
			repSeconds: 0.65,
		},
		{
			name: "suite-sweep",
			why:  "what cmd/experiments users pay: fig4+fig5 at scale 0.02 (32 points of ~50ms) on a 2-worker runner, so assembly, app build, Config.Digest and scheduling dominate instead of steady state",
			points: func(seed uint64) []runner.Job {
				opts := nicwarp.FigureOpts{Scale: sz.SweepScale, Nodes: 8, Seed: seed}
				var jobs []runner.Job
				for _, name := range []string{"fig4", "fig5"} {
					exp, err := nicwarp.ExperimentByName(name)
					if err != nil {
						panic(err) // registry names are fixed; a miss is a bug
					}
					jobs = append(jobs, exp.Jobs(opts)...)
				}
				// Each point simulates its own derived seed. With the one
				// seed FigureOpts carries, fig5's 16 POLICE points replay a
				// single rollback history and the sweep's totals swing
				// +-15% with it from seed to seed.
				for i := range jobs {
					jobs[i].Config.Seed = subSeed(seed, i)
				}
				return jobs
			},
			sweep:      true,
			shards:     1,
			repSeconds: 1.8,
		},
	}
}
