package main

import "time"

// A probe times one layer's public functions in a standalone rig. Each call
// builds the rig from the seed, runs probeBatchOps operations and returns
// the cost of one in nanoseconds; the reported value is the median of
// probeBatches calls, so every probe covers at least 200k operations.
//
// The rigs use only the surface README.md lists as allowed. Later refactors
// rely on that list: a probe must never reach into unexported state.
type probe struct {
	names []string // one metric per value run returns
	run   func(seed uint64) []float64
}

const (
	probeBatches  = 5
	probeBatchOps = 40000
)

// one adapts a single-valued probe.
func one(name string, run func(seed uint64) float64) probe {
	return probe{[]string{name}, func(seed uint64) []float64 { return []float64{run(seed)} }}
}

// probes lists every probe; each lives in the probe_<layer>.go file of the
// layer it measures.
var probes = []probe{
	one("des.step_ns_d1k", func(seed uint64) float64 { return probeDesStep(seed, 1000) }),
	one("des.step_ns_d100k", func(seed uint64) float64 { return probeDesStep(seed, 100000) }),
	one("des.cancel_ns_d1k", probeDesCancel),
	one("des.resource_submit_ns", probeDesResource),
	one("des.group_window_ns", probeDesGroupWindow),
	one("des.group_cross_ns", probeDesGroupCross),
	{[]string{"timewarp.process_ns", "timewarp.fossil_ns_event"}, probeTimewarpForward},
	one("timewarp.annihilate_ns", probeTimewarpAnnihilate),
	one("timewarp.rollback_ns_event", probeTimewarpRollback),
	one("gvt.ledger_ns", probeGVTLedger),
	one("mpich.send_recv_ns", probeMPICH),
	one("bip.stamp_accept_ns", probeBIP),
	{[]string{"proto.marshal_ns", "proto.unmarshal_ns"},
		func(seed uint64) []float64 { return probeProto(seed, 0) }},
	{[]string{"proto.batch_marshal_ns_sub", "proto.batch_unmarshal_ns_sub"},
		func(seed uint64) []float64 { return probeProto(seed, probeBatchSubs) }},
	one("nic.forward_ns_pkt", probeNICForward),
	one("simnet.announce_xbar8_ns_pkt", func(seed uint64) float64 { return probeSimnet(seed, 8, false) }),
	one("simnet.announce_fattree256_ns_pkt", func(seed uint64) float64 { return probeSimnet(seed, 256, true) }),
	one("hostmodel.do_ns", probeHostmodel),
	one("iobus.dma_ns", probeIOBus),
}

// runProbes runs every probe and returns each metric's median over the
// batches.
func runProbes(seed uint64) map[string]float64 {
	out := make(map[string]float64)
	for _, p := range probes {
		batches := make([][]float64, len(p.names))
		for b := 0; b < probeBatches; b++ {
			for i, v := range p.run(seed + uint64(b)) {
				batches[i] = append(batches[i], v)
			}
		}
		for i, name := range p.names {
			out[name] = median(batches[i])
		}
	}
	return out
}

// perOp converts a timed batch into nanoseconds per operation.
func perOp(start time.Time, ops int) float64 {
	return float64(time.Since(start).Nanoseconds()) / float64(ops)
}
