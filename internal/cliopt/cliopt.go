// Package cliopt is the one place the nicwarp binaries' shared flags are
// defined. Each helper wraps a core.Parse* validator in a flag.Value, so a
// bad value fails at flag-parse time with the same *core.FieldError text in
// every binary — cmd/nicwarp, cmd/experiments and cmd/stress used to each
// hand-roll this plumbing, and execution knobs like -shards had to be wired
// (and documented, and error-checked) once per binary.
//
// The helpers register on an explicit *flag.FlagSet rather than the global
// CommandLine so tests can exercise them hermetically.
package cliopt

import (
	"flag"
	"strconv"

	"nicwarp/internal/core"
	"nicwarp/internal/simnet"
)

// shardsValue adapts core.ParseShards to the flag.Value protocol.
type shardsValue int

func (v *shardsValue) String() string { return strconv.Itoa(int(*v)) }

func (v *shardsValue) Set(s string) error {
	n, err := core.ParseShards(s)
	if err != nil {
		return err
	}
	*v = shardsValue(n)
	return nil
}

// topoValue adapts core.ParseTopology to the flag.Value protocol.
type topoValue simnet.Topology

func (v *topoValue) String() string { return simnet.Topology(*v).String() }

func (v *topoValue) Set(s string) error {
	t, err := core.ParseTopology(s)
	if err != nil {
		return err
	}
	*v = topoValue(t)
	return nil
}

// gvtValue adapts core.ParseGVTMode to the flag.Value protocol.
type gvtValue core.GVTMode

func (v *gvtValue) String() string { return core.GVTMode(*v).String() }

func (v *gvtValue) Set(s string) error {
	m, err := core.ParseGVTMode(s)
	if err != nil {
		return err
	}
	*v = gvtValue(m)
	return nil
}

// Shards registers the -shards flag on fs and returns the destination.
// The default is 1 (serial); malformed or non-positive values fail flag
// parsing with the core.ParseShards field error. Shard counts above the
// node count are legal here and clamped at run time, where the cluster
// size is known. Sharding pays from about 64 nodes, where a window holds
// enough events to pay for its barrier; the paper's 8-node points run
// slower sharded (DESIGN.md §11, "Where sharding pays").
func Shards(fs *flag.FlagSet) *int {
	v := shardsValue(1)
	fs.Var(&v, "shards", "event-scheduler shards per run (execution strategy; results and digests are identical at any value). "+
		"Pays from about 64 nodes; 8-node runs are 1.5-2x slower at 2 shards")
	return (*int)(&v)
}

// GVT registers the -gvt flag on fs with the given default mode and
// returns the destination. Unknown spellings fail flag parsing with the
// core.ParseGVTMode field error listing the accepted names.
func GVT(fs *flag.FlagSet, def core.GVTMode) *core.GVTMode {
	v := gvtValue(def)
	fs.Var(&v, "gvt", "GVT implementation: mattern, nic, tree")
	return (*core.GVTMode)(&v)
}

// Topology registers the -topo flag on fs and returns the destination.
// The default is the crossbar; unknown spellings fail flag parsing with
// the core.ParseTopology field error listing the accepted names.
func Topology(fs *flag.FlagSet) *simnet.Topology {
	v := topoValue(simnet.TopoCrossbar)
	fs.Var(&v, "topo", "interconnect topology: crossbar, fattree")
	return (*simnet.Topology)(&v)
}

// Radix registers the -radix flag on fs and returns the destination. Zero
// (the default) means the default switch radix; it only matters for the
// fat-tree.
func Radix(fs *flag.FlagSet) *int {
	return fs.Int("radix", 0, "fat-tree switch radix (0 = default)")
}
