package main

// metricDef is one catalogue entry. The catalogue is the single source of
// the metric names, units, directions and bounds: BENCHMARK.json mirrors it
// (bench_test.go asserts the two agree), the report is filled from it, and
// -compare judges against its bounds.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the base by which it may worsen
	// Exact marks a value that is a pure function of the seed (modeled time,
	// counts): two runs of the same seed must agree on it bit for bit.
	Exact bool
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd lists what a user of the simulator sees, per workload. The
// bounds hold across the ten seeds the driver measures with, so they absorb
// the seed-to-seed variation of Time Warp's rollback behaviour as well as
// host noise; see README.md for how each was sized.
var endToEnd = []metricDef{
	{Name: "wall_ms_p50", Unit: "ms", Better: lower, Bound: 0.25},
	{Name: "committed_events_per_s", Unit: "1/s", Better: higher, Bound: 0.25},
	{Name: "allocs_per_run", Unit: "count", Better: lower, Bound: 0.15},
	{Name: "bytes_per_run", Unit: "bytes", Better: lower, Bound: 0.2},
	{Name: "modeled_exec_ms", Unit: "ms", Better: lower, Bound: 0.2, Exact: true},
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25},
}

// perLayer lists the single-layer metrics, reported by the traced pass. The
// layer is the name's prefix up to the first dot and is one of this
// repository's modules. Count and modeled metrics come from core.Result and
// repeat exactly for a seed; host metrics come from spans or probes.
var perLayer = []metricDef{
	{Name: "core.assemble_ms", Unit: "ms", Better: lower},
	{Name: "core.run_ms", Unit: "ms", Better: lower},
	{Name: "core.self_ms", Unit: "ms", Better: lower},
	{Name: "core.host_ns_per_event", Unit: "ns", Better: lower},
	{Name: "core.digest_us", Unit: "us", Better: lower},

	{Name: "apps.build_ms", Unit: "ms", Better: lower},
	{Name: "apps.execute_ms", Unit: "ms", Better: lower},
	{Name: "apps.execute_calls", Unit: "count", Better: lower, Exact: true},
	{Name: "apps.save_ms", Unit: "ms", Better: lower},
	{Name: "apps.restore_ms", Unit: "ms", Better: lower},
	{Name: "apps.restore_calls", Unit: "count", Better: lower, Exact: true},

	{Name: "timewarp.processed", Unit: "count", Better: lower, Exact: true},
	{Name: "timewarp.rolled_back", Unit: "count", Better: lower, Exact: true},
	{Name: "timewarp.rollbacks", Unit: "count", Better: lower, Exact: true},
	{Name: "timewarp.efficiency", Unit: "ratio", Better: higher, Exact: true},
	{Name: "timewarp.rollback_depth", Unit: "events", Better: lower, Exact: true},
	{Name: "timewarp.seq_ns_event", Unit: "ns", Better: lower},
	{Name: "timewarp.process_ns", Unit: "ns", Better: lower},
	{Name: "timewarp.annihilate_ns", Unit: "ns", Better: lower},
	{Name: "timewarp.rollback_ns_event", Unit: "ns", Better: lower},
	{Name: "timewarp.fossil_ns_event", Unit: "ns", Better: lower},

	{Name: "des.events", Unit: "count", Better: lower, Exact: true},
	{Name: "des.step_ns_d1k", Unit: "ns", Better: lower},
	{Name: "des.step_ns_d100k", Unit: "ns", Better: lower},
	{Name: "des.cancel_ns_d1k", Unit: "ns", Better: lower},
	{Name: "des.resource_submit_ns", Unit: "ns", Better: lower},
	{Name: "des.group_window_ns", Unit: "ns", Better: lower},
	{Name: "des.group_cross_ns", Unit: "ns", Better: lower},
	{Name: "des.shard_speedup", Unit: "ratio", Better: higher},
	{Name: "des.est_share", Unit: "ratio", Better: lower},

	{Name: "gvt.computations", Unit: "count", Better: lower, Exact: true},
	{Name: "gvt.rounds", Unit: "count", Better: lower, Exact: true},
	{Name: "gvt.control_msgs", Unit: "count", Better: lower, Exact: true},
	{Name: "gvt.piggybacks", Unit: "count", Better: higher, Exact: true},
	{Name: "gvt.doorbells", Unit: "count", Better: lower, Exact: true},
	{Name: "gvt.tokens_on_nic", Unit: "count", Better: lower, Exact: true},
	{Name: "gvt.conv_avg_us", Unit: "us", Better: lower, Exact: true},
	{Name: "gvt.host_time_share", Unit: "ratio", Better: lower, Exact: true},
	{Name: "gvt.ledger_ns", Unit: "ns", Better: lower},

	{Name: "mpich.send_recv_ns", Unit: "ns", Better: lower},
	{Name: "mpich.flow_blocked", Unit: "count", Better: lower, Exact: true},
	{Name: "mpich.credit_msgs", Unit: "count", Better: lower, Exact: true},
	{Name: "mpich.credit_repair", Unit: "count", Better: lower, Exact: true},
	{Name: "bip.stamp_accept_ns", Unit: "ns", Better: lower},
	{Name: "bip.gaps", Unit: "count", Better: lower, Exact: true},
	{Name: "proto.marshal_ns", Unit: "ns", Better: lower},
	{Name: "proto.unmarshal_ns", Unit: "ns", Better: lower},
	{Name: "proto.batch_marshal_ns_sub", Unit: "ns", Better: lower},
	{Name: "proto.batch_unmarshal_ns_sub", Unit: "ns", Better: lower},

	{Name: "nic.wire_packets", Unit: "count", Better: lower, Exact: true},
	{Name: "nic.dropped_in_place", Unit: "count", Better: higher, Exact: true},
	{Name: "nic.antis_filtered", Unit: "count", Better: higher, Exact: true},
	{Name: "nic.drop_rate_pct", Unit: "%", Better: higher, Exact: true},
	{Name: "nic.batch_frames", Unit: "count", Better: lower, Exact: true},
	{Name: "nic.subs_per_frame", Unit: "ratio", Better: higher, Exact: true},
	{Name: "nic.util", Unit: "ratio", Better: lower, Exact: true},
	{Name: "nic.forward_ns_pkt", Unit: "ns", Better: lower},

	{Name: "simnet.announce_xbar8_ns_pkt", Unit: "ns", Better: lower},
	{Name: "simnet.announce_fattree256_ns_pkt", Unit: "ns", Better: lower},

	{Name: "hostmodel.do_ns", Unit: "ns", Better: lower},
	{Name: "hostmodel.util", Unit: "ratio", Better: lower, Exact: true},
	{Name: "hostmodel.comm_share", Unit: "ratio", Better: lower, Exact: true},
	{Name: "hostmodel.rollback_share", Unit: "ratio", Better: lower, Exact: true},
	{Name: "iobus.dma_ns", Unit: "ns", Better: lower},
	{Name: "iobus.crossings", Unit: "count", Better: lower, Exact: true},
	{Name: "iobus.util", Unit: "ratio", Better: lower, Exact: true},

	{Name: "runner.points", Unit: "count", Better: lower, Exact: true},
	{Name: "runner.points_per_s", Unit: "1/s", Better: higher},
	{Name: "runner.serial_sum_ms", Unit: "ms", Better: lower},
	{Name: "runner.parallel_eff", Unit: "ratio", Better: higher},

	{Name: "trace.overhead_pct", Unit: "%", Better: lower},
}
