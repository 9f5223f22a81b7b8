package core

import "nicwarp/internal/vtime"

// Exec holds execution-strategy knobs: *how* a run is carried out, never
// *what* it computes. It is deliberately a separate struct from Config:
// Config.Digest keys the content-addressed result cache and the determinism
// contract, and an execution choice like the shard count must not move
// either — a sharded run commits byte-identical results to the serial run,
// so cached serial results stay valid at any -shards value.
type Exec struct {
	// Shards is the number of event engines the cluster's nodes are
	// partitioned across (node i lives on engine i mod Shards). 0 and 1
	// both mean a serial run. The value is clamped to [1, Config.Nodes]
	// and forced to 1 when the model offers no cross-shard lookahead
	// (Lookahead(cfg) <= 0).
	Shards int
}

// Lookahead returns the minimum model-time distance any cross-node
// interaction of the assembled hardware covers: the bound that makes
// bounded-window sharding sound. Two kinds of events cross nodes —
// announced wire arrivals, bounded below by the NIC's minimum transmit
// work plus link propagation and switch traversal, and stop/go credit
// returns, which take exactly NIC.CreditReturnDelay — so the lookahead is
// the smaller of the two.
func Lookahead(cfg Config) vtime.ModelTime {
	cfg = cfg.WithDefaults()
	wire := vtime.Cycles(cfg.NIC.SendCycles, cfg.NIC.ClockHz) + cfg.Net.MinTransitTime()
	return vtime.MinM(wire, cfg.NIC.CreditReturnDelay)
}

// shards resolves the effective shard count for a defaulted config.
func (x Exec) shards(cfg Config) int {
	s := x.Shards
	if s < 1 {
		s = 1
	}
	if s > cfg.Nodes {
		s = cfg.Nodes
	}
	if s > 1 && Lookahead(cfg) <= 0 {
		s = 1
	}
	return s
}
