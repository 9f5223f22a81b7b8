// Command nicwarp runs a single Time Warp cluster experiment from flags and
// prints the result summary. It is the exploratory companion to
// cmd/experiments, which regenerates the paper's figures.
//
// Examples:
//
//	nicwarp -app raid -requests 50000 -gvt nic -period 10
//	nicwarp -app police -stations 900 -cancel
//	nicwarp -app phold -nodes 4 -gvt mattern -period 100 -shards 4
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"nicwarp"
	"nicwarp/internal/cliopt"
	"nicwarp/internal/core"
	"nicwarp/internal/simnet"
	"nicwarp/internal/vtime"
)

// appBuilders maps -app names to model constructors. Unknown names error
// out listing these, the same contract cmd/experiments has for -only.
func appBuilders(requests, stations, objects, hops int) map[string]func() nicwarp.App {
	return map[string]func() nicwarp.App{
		"raid":   func() nicwarp.App { return nicwarp.RAID(nicwarp.RAIDCancelConfig(requests)) },
		"police": func() nicwarp.App { return nicwarp.Police(nicwarp.PoliceConfig(stations)) },
		"phold": func() nicwarp.App {
			return nicwarp.PHOLD(nicwarp.PHOLDParams{Objects: objects, Population: 1, Hops: hops, MeanDelay: 50, Locality: 0.2})
		},
	}
}

func main() {
	var (
		app      = flag.String("app", "phold", "application: raid, police, phold")
		nodes    = flag.Int("nodes", 8, "cluster size (LPs)")
		seed     = flag.Uint64("seed", 1, "experiment seed")
		gvtMode  = cliopt.GVT(flag.CommandLine, core.GVTHostMattern)
		topo     = cliopt.Topology(flag.CommandLine)
		radix    = cliopt.Radix(flag.CommandLine)
		shards   = cliopt.Shards(flag.CommandLine)
		period   = flag.Int("period", 1000, "GVT period (GVT_COUNT)")
		cancel   = flag.Bool("cancel", false, "enable NIC early cancellation")
		requests = flag.Int("requests", 50000, "RAID: total disk requests")
		stations = flag.Int("stations", 900, "POLICE: station count")
		objects  = flag.Int("objects", 32, "PHOLD: object count")
		hops     = flag.Int("hops", 500, "PHOLD: per-object send budget")
		verify   = flag.Bool("verify", false, "verify against the sequential oracle")
		samples  = flag.Bool("samples", false, "print a run-time series (GVT progression)")
	)
	flag.Parse()

	cfg := nicwarp.Config{
		Nodes:        *nodes,
		Seed:         *seed,
		GVT:          *gvtMode,
		GVTPeriod:    *period,
		EarlyCancel:  *cancel,
		VerifyOracle: *verify,
	}
	if *samples {
		cfg.SampleEvery = 10 * vtime.Millisecond
	}
	if *topo != simnet.TopoCrossbar || *radix != 0 {
		// Start from the full fabric defaults: a partially-filled Net would
		// suppress WithDefaults' zero-struct check and zero the bandwidth.
		cfg.Net = simnet.DefaultConfig()
		cfg.Net.Topology = *topo
		cfg.Net.Radix = *radix
	}
	builders := appBuilders(*requests, *stations, *objects, *hops)
	build, ok := builders[*app]
	if !ok {
		names := make([]string, 0, len(builders))
		for name := range builders {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "-app: %v\n", &core.FieldError{
			Field:  "App",
			Value:  *app,
			Reason: "unknown application (want " + strings.Join(names, ", ") + ")",
		})
		os.Exit(2)
	}
	cfg.App = build()

	// Validate up front so flag mistakes (e.g. -radix -1) surface as field
	// errors before any model is built.
	if err := cfg.WithDefaults().Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "invalid configuration:", err)
		os.Exit(2)
	}

	res, err := nicwarp.Run(cfg, nicwarp.WithShards(*shards))
	if err != nil {
		fmt.Fprintln(os.Stderr, "run failed:", err)
		os.Exit(1)
	}
	fmt.Printf("app=%s nodes=%d topo=%v gvt=%v period=%d cancel=%v seed=%d\n",
		*app, *nodes, *topo, cfg.GVT, *period, *cancel, *seed)
	fmt.Print(res)
	if *samples {
		fmt.Println("\ntime series:")
		fmt.Printf("%-14s %-12s %-12s %-12s %-8s\n", "model_time", "gvt", "processed", "rolledback", "hostutil")
		for _, s := range res.Samples {
			fmt.Printf("%-14v %-12v %-12d %-12d %-8.2f\n", s.T, s.GVT, s.Processed, s.RolledBack, s.HostUtil)
		}
	}
}
