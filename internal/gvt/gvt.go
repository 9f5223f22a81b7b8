// Package gvt implements Global Virtual Time estimation for the Time Warp
// cluster: the host-resident Mattern token-ring algorithm (the WARPED
// baseline the paper measures against) and the host half of the paper's
// NIC-resident implementation (the NIC half lives in internal/nic/firmware).
//
// Colour accounting generalizes Mattern's white/red to sequential
// computations: every event-like packet is stamped with the sender's
// computation epoch; a message is white for computation C when its stamp is
// below C. The Ledger type implements this bookkeeping and is shared by both
// implementations.
package gvt

import (
	"nicwarp/internal/dense"
	"nicwarp/internal/des"
	"nicwarp/internal/nic"
	"nicwarp/internal/proto"
	"nicwarp/internal/stats"
	"nicwarp/internal/vtime"
)

// Host is the capability surface a GVT manager sees on its LP. It is
// implemented by the cluster layer, which charges the host CPU for the work
// the manager performs.
type Host interface {
	// LP returns this host's logical-process id.
	LP() int
	// NumLPs returns the cluster size.
	NumLPs() int
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
	// Shared returns the host/NIC shared window (NIC-GVT only; nil when
	// the node has no programmable firmware installed).
	Shared() *nic.SharedWindow
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

// Manager is a host-side GVT algorithm. The cluster invokes the hooks; any
// packets the manager wants sent go through Host.SendControl or by mutating
// the outgoing packet in OnSent (piggybacking).
type Manager interface {
	// Start runs once before the simulation begins.
	Start(h Host)
	// OnProcessed runs after each locally processed event; managers use it
	// to count down their GVT period.
	OnProcessed(h Host)
	// OnSent runs for every outgoing event-like packet just before it is
	// handed to the protocol stack. The manager stamps colours and may
	// piggyback handshake values.
	OnSent(h Host, pkt *proto.Packet)
	// OnReceived runs for every inbound event-like packet delivered to the
	// kernel.
	OnReceived(h Host, pkt *proto.Packet)
	// OnControl handles an inbound GVT control packet addressed to the
	// host (host-resident algorithms only).
	OnControl(h Host, pkt *proto.Packet)
	// OnNotify handles a NIC doorbell.
	OnNotify(h Host, tag nic.NotifyTag)
	// OnIdle runs when the LP transitions to idle (no kernel work); the
	// root manager uses it to drive termination detection.
	OnIdle(h Host)
}

// Stats aggregates GVT-manager counters, comparable across algorithms.
type Stats struct {
	Computations stats.Counter // completed GVT computations
	Rounds       stats.Counter // token circulations (ring traversals)
	ControlMsgs  stats.Counter // dedicated host control messages sent
	Piggybacks   stats.Counter // handshake values piggybacked on event traffic
	Doorbells    stats.Counter // fallback doorbell handshakes
}

// Ledger is the white/red colour accounting for one LP.
//
// The arithmetic is cumulative: WhiteSent for computation C is the total
// number of messages sent before joining C, and white receives are all
// receives with stamp below C — ever, since the beginning of the run. To
// keep memory bounded without breaking the cumulative sums, receive counts
// for stamps already below the current epoch are folded into one "ancient"
// bucket at Join time (epochs only grow, so such stamps stay white for
// every future computation).
type Ledger struct {
	epoch        uint32            // computations joined; outgoing stamp
	sentTotal    int64             // event-like packets sent, any stamp
	sentAtJoin   int64             // sentTotal captured when joining the current epoch
	recv         dense.EpochWindow // receives by stamp, based at epoch
	reportedRecv int64             // white receives already reported this epoch
	minRedSend   vtime.VTime       // min SendTS among packets sent since joining
}

// NewLedger returns an empty ledger at epoch zero.
func NewLedger() *Ledger {
	return &Ledger{minRedSend: vtime.Infinity}
}

// Epoch returns the current computation epoch (the outgoing colour stamp).
func (l *Ledger) Epoch() uint32 { return l.epoch }

// OnSend accounts one outgoing event-like packet and stamps its colour.
func (l *Ledger) OnSend(pkt *proto.Packet) {
	pkt.ColorEpoch = l.epoch
	l.sentTotal++
	l.minRedSend = vtime.MinV(l.minRedSend, pkt.SendTS)
}

// OnRecv accounts one inbound event-like packet by its colour stamp.
func (l *Ledger) OnRecv(pkt *proto.Packet) {
	l.recv.Add(pkt.ColorEpoch, 1)
}

// Join enters computation c: sends from now on are red with respect to c.
// Joining an already-joined or older computation is a no-op.
func (l *Ledger) Join(c uint32) {
	if c <= l.epoch {
		return
	}
	l.epoch = c
	l.recv.Fold(c)
	l.sentAtJoin = l.sentTotal
	l.reportedRecv = 0
	l.minRedSend = vtime.Infinity
}

// WhiteSent returns the number of messages this LP sent before joining the
// current computation (all of them white with respect to it).
func (l *Ledger) WhiteSent() int64 { return l.sentAtJoin }

// whiteRecv returns the cumulative count of received messages with stamp
// below the current epoch.
func (l *Ledger) whiteRecv() int64 { return l.recv.Folded() }

// TakeRecvDelta returns the white receives not yet reported to the token in
// this computation and marks them reported.
func (l *Ledger) TakeRecvDelta() int64 {
	cur := l.whiteRecv()
	d := cur - l.reportedRecv
	l.reportedRecv = cur
	return d
}

// MinRedSend returns the minimum send timestamp among messages sent since
// joining the current computation (Infinity if none).
func (l *Ledger) MinRedSend() vtime.VTime { return l.minRedSend }

// next returns the successor of lp on the token ring.
func next(lp, n int) int { return (lp + 1) % n }
