// Package nicwarp reproduces "Using Programmable NICs for Time-Warp
// Optimization" (Noronha & Abu-Ghazaleh, IPDPS/IPPS 2002): a Time Warp
// parallel discrete event simulator running on a modeled cluster of
// workstations whose programmable NICs can host application firmware.
//
// The package is the public face of the repository. It re-exports the
// experiment configuration surface and the named experiment registry
// (Experiments, ExperimentByName): one entry per figure of the paper's
// evaluation (fig4 … fig78), plus ablation experiments for the design
// choices called out in DESIGN.md. cmd/experiments runs the registry.
//
// Quick start:
//
//	res, err := nicwarp.Run(nicwarp.Config{
//	    App:   nicwarp.PHOLD(nicwarp.PHOLDParams{Objects: 32, Population: 1, Hops: 500, MeanDelay: 50}),
//	    Nodes: 8,
//	    GVT:   nicwarp.GVTNIC,
//	    GVTPeriod: 100,
//	})
//
// The returned Result carries the modeled execution time (the paper's
// y-axes), message and rollback counts, GVT statistics and resource
// utilizations.
package nicwarp

import (
	"nicwarp/internal/apps/phold"
	"nicwarp/internal/apps/police"
	"nicwarp/internal/apps/raid"
	"nicwarp/internal/core"
	"nicwarp/internal/simnet"
	"nicwarp/internal/timewarp"
	"nicwarp/internal/vtime"
)

// Config describes one cluster experiment. See core.Config for field
// documentation.
type Config = core.Config

// Result aggregates an experiment's outputs.
type Result = core.Result

// App builds a simulation model.
type App = core.App

// GVTMode selects the GVT implementation.
type GVTMode = core.GVTMode

// GVT modes.
const (
	// GVTHostMattern is the host-resident Mattern baseline (WARPED).
	GVTHostMattern = core.GVTHostMattern
	// GVTNIC is the paper's NIC-level GVT.
	GVTNIC = core.GVTNIC
	// GVTPGVT is the pGVT-style centralized baseline (WARPED's other GVT
	// algorithm).
	GVTPGVT = core.GVTPGVT
	// GVTNICTree is the NIC-level GVT with tree reduction instead of ring
	// circulation: O(log n) convergence, built for large node counts.
	GVTNICTree = core.GVTNICTree
)

// Topology selects the cluster interconnect model (crossbar or fat-tree).
// Set it on Config.Net.Topology; Config.Net.Radix sets the fat-tree's
// switch radix.
type Topology = simnet.Topology

// Topologies.
const (
	// TopoCrossbar is the original single-stage full crossbar.
	TopoCrossbar = simnet.TopoCrossbar
	// TopoFatTree is a three-level folded-Clos fat tree.
	TopoFatTree = simnet.TopoFatTree
)

// CancellationPolicy selects aggressive or lazy cancellation.
type CancellationPolicy = timewarp.CancellationPolicy

// Cancellation policies.
const (
	// Aggressive cancellation (the paper's policy).
	Aggressive = timewarp.Aggressive
	// Lazy cancellation (ablation baseline).
	Lazy = timewarp.Lazy
)

// ModelTime is hardware-model time in nanoseconds.
type ModelTime = vtime.ModelTime

// VTime is Time Warp virtual time.
type VTime = vtime.VTime

// RAIDParams configures the RAID-5 model.
type RAIDParams = raid.Params

// RAIDGVTConfig returns the paper's Figure 4 RAID configuration (10
// sources, 8 forks, 8 disks).
func RAIDGVTConfig(requests int) RAIDParams { return raid.GVTConfig(requests) }

// RAIDCancelConfig returns the paper's Figure 6 RAID configuration (16
// sources, 8 forks, 8 disks).
func RAIDCancelConfig(requests int) RAIDParams { return raid.CancelConfig(requests) }

// RAID builds the RAID application.
func RAID(p RAIDParams) App { return raid.New(p) }

// PoliceParams configures the POLICE model.
type PoliceParams = police.Params

// PoliceConfig returns the paper-scale POLICE configuration for a station
// count.
func PoliceConfig(stations int) PoliceParams { return police.DefaultConfig(stations) }

// Police builds the POLICE application.
func Police(p PoliceParams) App { return police.New(p) }

// PHOLDParams configures the PHOLD synthetic workload.
type PHOLDParams = phold.Params

// PHOLD builds the PHOLD application.
func PHOLD(p PHOLDParams) App { return phold.New(p) }

// Run assembles and executes one experiment. Options adjust how the run
// executes — WithShards. Run(cfg) with no options is the historical serial
// path; see options.go for the contract that execution options never
// change what a config computes.
func Run(cfg Config, opts ...RunOption) (*Result, error) {
	o := applyOptions(opts)
	cl, err := core.NewClusterExec(cfg, o.exec)
	if err != nil {
		return nil, err
	}
	return cl.Run()
}

// MustRun is Run for examples and benchmarks where a failure is fatal.
func MustRun(cfg Config, opts ...RunOption) *Result {
	res, err := Run(cfg, opts...)
	if err != nil {
		panic(err)
	}
	return res
}
