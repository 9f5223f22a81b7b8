// Package gvt implements Global Virtual Time estimation for the Time Warp
// cluster: the host-resident Mattern token-ring algorithm (the WARPED
// baseline the paper measures against) and the host half of the paper's
// NIC-resident implementation (the NIC half lives in internal/nic/firmware).
//
// Colour accounting generalizes Mattern's white/red to sequential
// computations: every event-like packet is stamped with the sender's
// computation epoch; a message is white for computation C when its stamp is
// below C. Both managers keep this bookkeeping in one Ledger: host Mattern
// with as many live computations as its ring carries, the NIC-GVT host half
// with exactly one.
package gvt

import (
	"nicwarp/internal/des"
	"nicwarp/internal/nic"
	"nicwarp/internal/proto"
	"nicwarp/internal/stats"
	"nicwarp/internal/vtime"
)

// Host is what the cluster does for a GVT manager on its LP. It is
// implemented by the cluster layer, which charges the host CPU for the work
// the manager performs. A manager is bound to its Host, LP id and shared
// window once, by its Init.
type Host interface {
	// LVT returns the kernel's lower bound on future message timestamps.
	LVT() vtime.VTime
	// OutboundMin returns the minimum send timestamp over messages the
	// kernel has emitted that have not yet reached the NIC's transmit-side
	// GVT accounting point (parked send batches, flow-control stalls, the
	// host→NIC DMA ring). The kernel's LVT does not cover them, and when
	// their colour stamp predates the current computation neither does the
	// white balance — a manager whose reports race outbound work must fold
	// this in or risk committing past an in-flight message (the paper's
	// "consistency is a major issue" lesson, one layer up). Infinity when
	// nothing is pending.
	OutboundMin() vtime.VTime
	// CommitGVT installs a newly computed GVT value: fossil collection,
	// statistics, termination detection.
	CommitGVT(gvt vtime.VTime)
	// SendControl transmits a host-generated GVT control packet. The
	// cluster charges the full host cost of building and sending a
	// dedicated message — the cost the NIC implementation avoids.
	SendControl(pkt *proto.Packet)
	// RingDoorbell pays the bus crossing and notifies the NIC that the
	// shared window was updated (the no-outgoing-traffic fallback path).
	RingDoorbell()
	// Now returns the host's current model time; managers use it to
	// measure GVT convergence latency (initiation to commit).
	Now() vtime.ModelTime
	// Schedule runs fn(arg) after a model-time delay; used for handshake
	// fallback timers. fn must be a top-level function and arg a pointer
	// threaded through as the receiver — the pair replaces a captured
	// closure so that arming a fallback on the GVT hot path allocates
	// nothing. The returned by-value ref cancels the callback.
	Schedule(d vtime.ModelTime, fn func(interface{}), arg interface{}) des.TimerRef
}

// Manager is a host-side GVT algorithm, bound to its node by its Init. The
// cluster invokes the hooks; any packets the manager wants sent go through
// Host.SendControl or by mutating the outgoing packet in OnSent
// (piggybacking).
type Manager interface {
	// OnProcessed runs after each locally processed event; managers use it
	// to count down their GVT period.
	OnProcessed()
	// OnSent runs for every outgoing event-like packet just before it is
	// handed to the protocol stack. The manager stamps colours and may
	// piggyback handshake values.
	OnSent(pkt *proto.Packet)
	// OnReceived runs for every inbound event-like packet delivered to the
	// kernel.
	OnReceived(pkt *proto.Packet)
	// OnControl handles an inbound GVT control packet addressed to the
	// host (host-resident algorithms only).
	OnControl(pkt *proto.Packet)
	// OnNotify handles a NIC doorbell.
	OnNotify(tag nic.NotifyTag)
	// OnIdle runs when the LP transitions to idle (no kernel work); the
	// root manager uses it to drive termination detection.
	OnIdle()
}

// Stats aggregates GVT-manager counters, comparable across algorithms.
type Stats struct {
	Computations stats.Counter // completed GVT computations
	Rounds       stats.Counter // token circulations (ring traversals)
	ControlMsgs  stats.Counter // dedicated host control messages sent
	Piggybacks   stats.Counter // handshake values piggybacked on event traffic
	Doorbells    stats.Counter // fallback doorbell handshakes
}
