// Package iobus models the per-node I/O bus (PCI in the paper's cluster)
// that sits between the host and the NIC.
//
// The paper's motivation leans on this bus: "Outgoing messages traverse the
// I/O bus twice... at the full network bandwidth of Myrinet, 100% of a
// typical I/O bus bandwidth will be consumed by network traffic." Both
// optimizations save bus crossings — NIC-GVT generates tokens on the NIC so
// they never cross the bus, and early cancellation drops messages that have
// already crossed once before they are transmitted (saving the crossings at
// the destination).
//
// The bus is a single FIFO resource per node shared by host-to-NIC and
// NIC-to-host DMA, so heavy traffic in one direction delays the other —
// the contention effect behind the WARPED curve blowing up at aggressive
// GVT periods.
package iobus

import (
	"nicwarp/internal/des"
	"nicwarp/internal/stats"
	"nicwarp/internal/vtime"
)

// Config holds bus timing parameters.
type Config struct {
	// Bandwidth is the bus bandwidth in bytes per second.
	Bandwidth float64
	// DMASetup is the fixed per-transfer setup cost (descriptor write,
	// doorbell, arbitration).
	DMASetup vtime.ModelTime
}

// DefaultConfig returns parameters for a 32-bit/33 MHz PCI bus (132 MB/s),
// the common host bus in the paper's era of 2-way PIII servers.
func DefaultConfig() Config {
	return Config{
		Bandwidth: 132e6,
		DMASetup:  800 * vtime.Nanosecond,
	}
}

// Bus is one node's I/O bus.
type Bus struct {
	cfg  Config
	res  des.Resource
	xfer vtime.TransferMemo // of cfg.Bandwidth

	Transfers stats.Counter // DMA and control-word crossings
}

// NewBus creates a bus. The node is the engine's current lane (Init).
func NewBus(eng *des.Engine, _ int, cfg Config) *Bus {
	b := new(Bus)
	b.Init(eng, cfg)
	return b
}

// Init sets b up in place as the bus of the node on the engine's lane.
func (b *Bus) Init(eng *des.Engine, cfg Config) {
	if cfg.Bandwidth <= 0 {
		panic("iobus: nonpositive bandwidth")
	}
	*b = Bus{cfg: cfg}
	b.res.Init(eng, "iobus")
}

// DMAArg queues a transfer of size bytes; at completion fn(arg) runs (see
// des.Resource.SubmitArg for the calling convention). Direction does not
// matter to the shared-bus model; both directions contend for the same
// cycles.
func (b *Bus) DMAArg(size int, fn func(interface{}), arg interface{}) {
	if size < 0 {
		panic("iobus: negative transfer size")
	}
	cost := b.cfg.DMASetup + b.xfer.Time(size, b.cfg.Bandwidth)
	b.Transfers.Inc()
	b.res.SubmitArg(cost, fn, arg)
}

// WordArg queues a small control-word transfer (shared-memory flag write,
// doorbell); at completion fn(arg) runs. It pays only the setup cost; used
// for the host/NIC handshakes the paper implements through the "global
// buffer shared between the host and the NIC".
func (b *Bus) WordArg(fn func(interface{}), arg interface{}) {
	b.Transfers.Inc()
	b.res.SubmitArg(b.cfg.DMASetup, fn, arg)
}

// UtilizationAt returns the fraction of model time up to end the bus was
// busy. The clock is explicit because a shard engine's own clock stops at
// its last local event; callers pass the group clock.
func (b *Bus) UtilizationAt(end vtime.ModelTime) float64 { return b.res.UtilizationAt(end) }
