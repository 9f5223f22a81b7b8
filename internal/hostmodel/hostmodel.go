// Package hostmodel models one cluster node's host processor and the
// software costs the paper's measurements include: the WARPED kernel's
// per-event work, the MPICH/BIP protocol stack, interrupt handling, and the
// extra work of generating GVT control messages in the host-only
// implementation.
//
// Costs live in a CostTable so experiments and ablation benchmarks can vary
// them; the defaults are calibrated so the modeled execution times land in
// the same ranges as the paper's figures (tens to hundreds of modeled
// seconds for the paper's workloads).
package hostmodel

import (
	"fmt"

	"nicwarp/internal/des"
	"nicwarp/internal/stats"
	"nicwarp/internal/vtime"
)

// CostTable enumerates host-side service times. All values are model-time
// durations charged on the host CPU resource.
type CostTable struct {
	// EventGrain is the application computation per processed event. Time
	// Warp workloads in the paper are fine-grained; tens of microseconds on
	// a 550 MHz Pentium III.
	EventGrain vtime.ModelTime
	// KernelOverhead is the WARPED kernel cost per processed event: queue
	// operations, state saving, scheduling.
	KernelOverhead vtime.ModelTime
	// SendOverhead is the host protocol-stack cost to post one outgoing
	// message (MPICH + BIP, descriptor setup).
	SendOverhead vtime.ModelTime
	// RecvOverhead is the host protocol-stack cost to absorb one incoming
	// message into the kernel.
	RecvOverhead vtime.ModelTime
	// InterruptOverhead is the per-inbound-DMA interrupt/notification cost.
	InterruptOverhead vtime.ModelTime
	// RollbackBase is the fixed cost of a rollback (state restore).
	RollbackBase vtime.ModelTime
	// RollbackPerEvent is the additional rollback cost per unprocessed
	// event and per generated anti-message.
	RollbackPerEvent vtime.ModelTime
	// GVTHostCompute is the host-side Mattern bookkeeping per token visit
	// (fold counters, compute minima).
	GVTHostCompute vtime.ModelTime
	// GVTMsgBuild is the extra cost of allocating and building a dedicated
	// GVT control message in the host-only implementation ("these messages
	// take up resources (CPU and memory)").
	GVTMsgBuild vtime.ModelTime
	// SharedWrite is the host cost of writing a word into the host/NIC
	// shared window (piggyback values, colour changes, drop-buffer reads).
	SharedWrite vtime.ModelTime
	// FossilPerEvent is the garbage-collection cost per reclaimed event.
	FossilPerEvent vtime.ModelTime
	// FossilPerObject is the per-local-object scan cost of one fossil
	// collection pass (2002-era WARPED walks every object's queues).
	FossilPerObject vtime.ModelTime
	// GVTScanPerObject is the per-local-object cost of a host Mattern token
	// visit: WARPED recomputes LVT by examining the scheduler state. The
	// NIC implementation avoids it by keeping the LVT mirror incrementally
	// up to date on the NIC (paper Figure 2).
	GVTScanPerObject vtime.ModelTime
	// HistPenaltyPer1K is the extra per-event memory-system cost for every
	// thousand retained (uncollected) history entries: long state and event
	// queues blow the caches, which is why the paper's curves rise when GVT
	// runs infrequently.
	HistPenaltyPer1K vtime.ModelTime
	// HistPenaltyCap bounds the memory penalty per event.
	HistPenaltyCap vtime.ModelTime
}

// HistPenalty returns the per-event memory penalty for a given retained
// history size.
func (c *CostTable) HistPenalty(hist int) vtime.ModelTime {
	p := vtime.ModelTime(hist) * c.HistPenaltyPer1K / 1000
	return vtime.MinM(p, c.HistPenaltyCap)
}

// DefaultCostTable returns the calibrated cost model for a 550 MHz PIII
// running RedHat 6.2 with MPICH over BIP, per the paper's testbed.
func DefaultCostTable() CostTable {
	return CostTable{
		EventGrain:        14 * vtime.Microsecond,
		KernelOverhead:    8 * vtime.Microsecond,
		SendOverhead:      9 * vtime.Microsecond,
		RecvOverhead:      9 * vtime.Microsecond,
		InterruptOverhead: 4 * vtime.Microsecond,
		RollbackBase:      20 * vtime.Microsecond,
		RollbackPerEvent:  6 * vtime.Microsecond,
		GVTHostCompute:    5 * vtime.Microsecond,
		GVTMsgBuild:       7 * vtime.Microsecond,
		SharedWrite:       1 * vtime.Microsecond,
		FossilPerEvent:    400 * vtime.Nanosecond,
		FossilPerObject:   600 * vtime.Nanosecond,
		GVTScanPerObject:  250 * vtime.Nanosecond,
		HistPenaltyPer1K:  4 * vtime.Microsecond,
		HistPenaltyCap:    30 * vtime.Microsecond,
	}
}

// Validate checks that no cost is negative.
func (c *CostTable) Validate() error {
	costs := []struct {
		name string
		v    vtime.ModelTime
	}{
		{"EventGrain", c.EventGrain},
		{"KernelOverhead", c.KernelOverhead},
		{"SendOverhead", c.SendOverhead},
		{"RecvOverhead", c.RecvOverhead},
		{"InterruptOverhead", c.InterruptOverhead},
		{"RollbackBase", c.RollbackBase},
		{"RollbackPerEvent", c.RollbackPerEvent},
		{"GVTHostCompute", c.GVTHostCompute},
		{"GVTMsgBuild", c.GVTMsgBuild},
		{"SharedWrite", c.SharedWrite},
		{"FossilPerEvent", c.FossilPerEvent},
		{"FossilPerObject", c.FossilPerObject},
		{"GVTScanPerObject", c.GVTScanPerObject},
		{"HistPenaltyPer1K", c.HistPenaltyPer1K},
		{"HistPenaltyCap", c.HistPenaltyCap},
	}
	for _, x := range costs {
		if x.v < 0 {
			return fmt.Errorf("hostmodel: negative cost %s = %v", x.name, x.v)
		}
	}
	return nil
}

// CPU is one node's host processor: a FIFO resource plus the cost table and
// accounting split by work category, so experiments can report where host
// cycles went (the paper's explanation of Figure 4 is exactly such a
// breakdown).
type CPU struct {
	Costs CostTable

	res des.Resource

	// Busy time by category.
	EventWork    stats.BusyTime // application + kernel event processing
	CommWork     stats.BusyTime // protocol stack, interrupts
	GVTWork      stats.BusyTime // GVT bookkeeping and control messages
	RollbackWork stats.BusyTime // rollback and cancellation
}

// Category labels host work for the accounting breakdown.
type Category int

// Work categories.
const (
	CatEvent Category = iota
	CatComm
	CatGVT
	CatRollback
)

// NewCPU builds a host CPU. The node is the engine's current lane (Init).
func NewCPU(eng *des.Engine, _ int, costs CostTable) *CPU {
	c := new(CPU)
	c.Init(eng, costs)
	return c
}

// Init sets c up in place as the CPU of the node on the engine's lane.
func (c *CPU) Init(eng *des.Engine, costs CostTable) {
	if err := costs.Validate(); err != nil {
		panic(err)
	}
	*c = CPU{Costs: costs}
	c.res.Init(eng, "host-cpu")
}

// DoArg charges cost on the CPU under the given category; at completion
// fn(arg) runs, unless fn is nil. fn should be a top-level function and arg
// a threaded receiver, so steady-state callers allocate nothing per job.
func (c *CPU) DoArg(cat Category, cost vtime.ModelTime, fn func(interface{}), arg interface{}) {
	c.charge(cat, cost)
	c.res.SubmitArg(cost, fn, arg)
}

// DoArg2 is DoArg with two threaded receivers — a component and a payload —
// so a job that carries a packet needs no wrapper allocation.
func (c *CPU) DoArg2(cat Category, cost vtime.ModelTime, fn func(interface{}, interface{}), a, b interface{}) {
	c.charge(cat, cost)
	c.res.SubmitArg2(cost, fn, a, b)
}

func (c *CPU) charge(cat Category, cost vtime.ModelTime) {
	switch cat {
	case CatEvent:
		c.EventWork.AddInterval(cost)
	case CatComm:
		c.CommWork.AddInterval(cost)
	case CatGVT:
		c.GVTWork.AddInterval(cost)
	case CatRollback:
		c.RollbackWork.AddInterval(cost)
	default:
		panic(fmt.Sprintf("hostmodel: unknown category %d", cat)) //nicwarp:alloc formats only on the way to a crash
	}
}

// Idle reports whether the CPU has no queued work.
func (c *CPU) Idle() bool { return c.res.Idle() }

// UtilizationAt returns the fraction of model time up to end the CPU was
// busy. The clock is explicit because a shard engine's own clock stops at
// its last local event; callers pass the group clock.
func (c *CPU) UtilizationAt(end vtime.ModelTime) float64 { return c.res.UtilizationAt(end) }
