package core

import (
	"fmt"
	"strings"

	"nicwarp/internal/gvt"
	"nicwarp/internal/invariant"
	"nicwarp/internal/vtime"
)

// Sample is one point of the optional run-time series (Config.SampleEvery):
// cumulative counters and cluster state at model time T, the clock of the
// first window barrier at or past a multiple of the interval.
type Sample struct {
	T          vtime.ModelTime
	GVT        vtime.VTime
	Processed  int64
	RolledBack int64
	HostUtil   float64
}

// Result aggregates everything an experiment reports — the quantities behind
// every figure in the paper's evaluation section.
type Result struct {
	// ExecTime is the modeled wall-clock execution time (the "Simulation
	// Time (sec)" axis of Figures 4–7).
	ExecTime vtime.ModelTime

	// CommittedEvents is the number of surviving event executions; it must
	// match the sequential oracle.
	CommittedEvents int
	// Digest is the committed-state digest, comparable to the oracle's.
	Digest uint64

	// ProcessedEvents counts all executions including undone ones;
	// RolledBackEvents counts the undone ones; Rollbacks counts episodes.
	ProcessedEvents  int64
	RolledBackEvents int64
	Rollbacks        int64

	// Message accounting.
	EventMsgsBuilt  int64 // host-built event-like packets (Figure 8's "overall messages generated")
	EventMsgsOnWire int64 // event-like packets actually transmitted (Figure 6b's "messages sent")
	AntisBuilt      int64 // anti-messages built by hosts
	DroppedInPlace  int64 // positives cancelled in the NIC send queue
	AntisFiltered   int64 // antis dropped at the NIC (drop-buffer hit)
	DropsDeclined   int64 // cancellable positives forwarded because their object's drop ring was full

	// GVT accounting.
	GVTComputations int64       // completed computations
	GVTRounds       int64       // token ring circulations (Figure 5b)
	GVTControlMsgs  int64       // dedicated host control messages (host Mattern)
	GVTTokensOnNIC  int64       // tokens handled entirely on NICs (NIC-GVT)
	GVTPiggybacks   int64       // handshakes piggybacked on event traffic
	GVTDoorbells    int64       // handshake fallbacks
	FinalGVT        vtime.VTime // highest committed GVT

	// GVT convergence latency at the root (NIC ring/tree modes): model
	// time from staging a computation to committing its value, summed and
	// high-watered over GVTConvCount completed computations. The scaling
	// of GVTConvAvg with the node count is the ring-vs-tree headline: the
	// ring circulates in O(n) hops, the tree reduces in O(log n).
	GVTConvTotal vtime.ModelTime
	GVTConvMax   vtime.ModelTime
	GVTConvCount int64

	// Resource utilization (averaged over nodes).
	HostUtil float64
	BusUtil  float64
	NICUtil  float64

	// Host CPU time by category, summed over nodes.
	HostEventTime    vtime.ModelTime
	HostCommTime     vtime.ModelTime
	HostGVTTime      vtime.ModelTime
	HostRollbackTime vtime.ModelTime

	// Flow control.
	FlowBlocked   int64 // packets that waited for credit
	CreditMsgs    int64
	BIPGaps       int64 // receive-side sequence gaps (should equal drop count)
	BIPLateFilled int64 // gap holes later filled by late/retransmitted packets
	BIPDuplicates int64 // duplicate deliveries identified and discarded
	CreditRepair  int64 // credits refunded for packets dropped in place

	// Batching (zero unless Config.NIC.BatchMax > 1).
	BatchFrames  int64 // batch frames put on the wire
	BatchSubs    int64 // sub-messages carried inside batch frames
	WirePackets  int64 // packets (frames count once) actually serialized onto the wire
	BusCrossings int64 // I/O-bus transfers, summed over nodes (DMAs + doorbell words)

	// Fault accounting (zero unless Config.Fault was set).
	FaultsInjected int64 // total fault decisions that bit (drops, dups, delays, holds, stalls)

	// Invariants is the protocol-oracle report when Config.CheckInvariants
	// (or a fault plan) was set; nil otherwise.
	Invariants *invariant.Report

	// Samples is the run-time series when Config.SampleEvery was set.
	Samples []Sample
}

// GVTConvAvg returns the mean GVT convergence latency at the root (zero
// when no computation completed or the mode does not track convergence).
func (r *Result) GVTConvAvg() vtime.ModelTime {
	if r.GVTConvCount == 0 {
		return 0
	}
	return r.GVTConvTotal / vtime.ModelTime(r.GVTConvCount)
}

// RollbackDepth returns the mean number of events undone per rollback
// episode (zero when no rollback occurred).
func (r *Result) RollbackDepth() float64 {
	if r.Rollbacks == 0 {
		return 0
	}
	return float64(r.RolledBackEvents) / float64(r.Rollbacks)
}

// NICDropRate returns Figure 7b's "percentage of cancelled messages dropped
// by NIC": DroppedInPlace over AntisBuilt (every cancelled positive has one
// anti-message built for it, whether it reaches the wire or the NIC filters
// it). Zero when nothing was cancelled.
func (r *Result) NICDropRate() float64 {
	if r.AntisBuilt == 0 {
		return 0
	}
	return 100 * float64(r.DroppedInPlace) / float64(r.AntisBuilt)
}

// String renders a multi-line summary.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "exec time        %v\n", r.ExecTime)
	fmt.Fprintf(&b, "committed events %d (processed %d, rolled back %d in %d rollbacks)\n",
		r.CommittedEvents, r.ProcessedEvents, r.RolledBackEvents, r.Rollbacks)
	fmt.Fprintf(&b, "event msgs       built %d, on wire %d, dropped in place %d\n",
		r.EventMsgsBuilt, r.EventMsgsOnWire, r.DroppedInPlace)
	fmt.Fprintf(&b, "antis            built %d, filtered %d\n",
		r.AntisBuilt, r.AntisFiltered)
	fmt.Fprintf(&b, "gvt              %d computations, %d rounds, %d control msgs, final %v\n",
		r.GVTComputations, r.GVTRounds, r.GVTControlMsgs, r.FinalGVT)
	if r.GVTConvCount > 0 {
		fmt.Fprintf(&b, "gvt convergence  avg %v, max %v over %d computations\n",
			r.GVTConvAvg(), r.GVTConvMax, r.GVTConvCount)
	}
	fmt.Fprintf(&b, "utilization      host %.2f, bus %.2f, nic %.2f\n",
		r.HostUtil, r.BusUtil, r.NICUtil)
	return b.String()
}

// collect gathers the result from a quiesced cluster.
func (cl *Cluster) collect() *Result {
	// Utilizations are measured against the cluster-wide final clock: a
	// shard member's own clock stops at its last local event, so dividing
	// by it would overstate the busy fraction of lightly loaded shards.
	end := cl.Now()
	r := &Result{
		ExecTime: end,
		Digest:   cl.Digest(),
		FinalGVT: cl.committedGVT(),
		Samples:  cl.samples,
	}
	for i := range cl.nodes {
		n := &cl.nodes[i]
		ks := &n.kernel.Stats
		r.CommittedEvents += n.kernel.CommittedEvents()
		r.ProcessedEvents += ks.Processed.Value()
		r.RolledBackEvents += ks.RolledBack.Value()
		r.Rollbacks += ks.Rollbacks.Value()

		r.EventMsgsBuilt += n.eventsBuilt.Value()
		r.AntisBuilt += n.antisBuilt.Value()

		ns := &n.nicDev.Stats
		r.DroppedInPlace += ns.DroppedInPlace.Value()
		r.AntisFiltered += ns.AntisFiltered.Value()
		r.DropsDeclined += ns.DropsDeclined.Value()
		r.BatchFrames += ns.BatchFrames.Value()
		r.BatchSubs += ns.BatchSubs.Value()
		r.WirePackets += ns.HostTx.Value() + ns.NICTx.Value()
		r.BusCrossings += n.bus.Transfers.Value()

		switch mgr := n.mgr.(type) {
		case *gvt.MatternManager:
			r.GVTComputations += mgr.Stats.Computations.Value()
			r.GVTRounds += mgr.Stats.Rounds.Value()
			r.GVTControlMsgs += mgr.Stats.ControlMsgs.Value()
		case *gvt.NICGVTManager:
			r.GVTComputations += mgr.Stats.Computations.Value()
			r.GVTPiggybacks += mgr.Stats.Piggybacks.Value()
			r.GVTDoorbells += mgr.Stats.Doorbells.Value()
			r.GVTConvTotal += mgr.ConvSum
			r.GVTConvCount += mgr.ConvCount
			if mgr.ConvMax > r.GVTConvMax {
				r.GVTConvMax = mgr.ConvMax
			}
		}
		if cl.gvtFW != nil {
			fw := &cl.gvtFW[i]
			r.GVTRounds += fw.RoundsAtRoot.Value()
			r.GVTTokensOnNIC += fw.TokensOnNIC.Value()
		}

		r.HostUtil += n.cpu.UtilizationAt(end)
		r.BusUtil += n.bus.UtilizationAt(end)
		r.NICUtil += n.nicDev.ProcUtilizationAt(end)
		r.HostEventTime += n.cpu.EventWork.Total()
		r.HostCommTime += n.cpu.CommWork.Total()
		r.HostGVTTime += n.cpu.GVTWork.Total()
		r.HostRollbackTime += n.cpu.RollbackWork.Total()

		r.FlowBlocked += n.flow.Blocked.Value()
		r.CreditMsgs += n.flow.CreditMsgs.Value()
		r.CreditRepair += n.flow.Refunded.Value()
		r.BIPGaps += n.bipEnd.GapsDetected.Value()
		r.BIPLateFilled += n.bipEnd.LateFilled.Value()
		r.BIPDuplicates += n.bipEnd.Duplicates.Value()
	}
	if cl.plane != nil {
		r.FaultsInjected = cl.plane.Injected()
	}
	if cl.checker != nil {
		r.Invariants = cl.checker.Report()
	}
	nNodes := float64(len(cl.nodes))
	r.HostUtil /= nNodes
	r.BusUtil /= nNodes
	r.NICUtil /= nNodes
	r.EventMsgsOnWire = r.EventMsgsBuilt - r.DroppedInPlace - r.AntisFiltered
	return r
}
