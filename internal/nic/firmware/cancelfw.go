package firmware

import (
	"nicwarp/internal/dense"
	"nicwarp/internal/nic"
	"nicwarp/internal/proto"
	"nicwarp/internal/vtime"
)

// CancelFirmware implements the paper's early message cancellation
// (Section 3.2): when an anti-message passes through the NIC on its way to
// the host, positive messages still waiting in the NIC send queue that the
// imminent rollback is certain to cancel are discarded in place — saving
// their wire transfer, the destination's bus crossings and processing, and
// the rollbacks they would have caused.
//
// Consistency (the paper's central difficulty) is enforced with three
// mechanisms, all from the paper:
//
//  1. The host piggybacks on every outgoing message the count of remote
//     anti-messages it has processed ("the host reports the last received
//     anti-stamp to the NIC by piggybacking ... on all outgoing messages").
//     The NIC numbers the anti-messages it forwards to the host; a queued
//     positive is cancellable against anti k only if it was generated
//     before the host processed k — i.e. its piggybacked count is below k.
//     Messages generated afterwards are legitimate re-execution output.
//
//  2. Dropped event IDs are recorded in the host-shared drop buffer ("for
//     every object on the LP we allocate a buffer ... so that it can be
//     accessed by both the host and the NIC"). The NIC is its only
//     consumer: it filters the matching anti-message when the host sends
//     it (the paper also lets the host read the buffer; the KindAnti arm
//     of OnHostSend says why this reproduction does not). A ring holds a
//     fixed number of records per sending object, so a positive is
//     dropped only while its object's ring has a free slot; with none the
//     packet is forwarded untouched and Time Warp cancels it the ordinary
//     way (an undropped packet is an ordinary packet), which is why no
//     capacity can change committed results.
//
//  3. Credit-based flow control is repaired: each drop strands one MPICH
//     credit at the sender. The paper recovers it on the receive side ("the
//     NIC keeps track of credit from dropped packets for a particular
//     destination and updates credit information for a packet headed for
//     that destination"), which leaves credit stranded — and the sender's
//     window wedged — when the dropped packet was the last traffic toward
//     that destination. This reproduction refunds the credit at the sender
//     instead: the firmware books it in the shared window and doorbells the
//     host, which returns it to MPICH directly. A dropped packet never
//     occupies receiver buffering, so the sender-side refund is exact.
//
// The drop predicate — same sending object as the anti's destination
// object, send timestamp above the anti's receive timestamp, generated
// before the host processed the anti — is exactly the set of messages the
// host's aggressive cancellation is guaranteed to anti-message, which is
// what keeps the optimization invisible to simulation results.
type CancelFirmware struct {
	// entries are the open cancellation windows in opening order, which is
	// ascending seq, so they also expire oldest first.
	entries       dense.FIFO[cancelEntry]
	antisToHost   uint64 // anti-messages forwarded to the host, in order
	lastHostEpoch uint64 // highest processed-anti count piggybacked by the host

	// scan is the window the in-progress send-queue scan applies, and
	// scanPred is f.scanMatches bound once: the queue walk takes a func
	// value, and a literal capturing the window would allocate per anti.
	// scanRoom starts at the free drop-ring slots of scan.obj and counts
	// down once per cancellable packet, so a burst cannot over-reserve:
	// the oldest matches take the slots, and a negative value is the
	// number of matches the scan declined.
	scan     cancelEntry
	scanRoom int
	scanPred func(*proto.Packet) bool
}

// cancelEntry is one active cancellation window: anti number seq for object
// obj with receive timestamp ts.
type cancelEntry struct {
	obj int32
	ts  vtime.VTime
	seq uint64
}

// NewCancel returns the early-cancellation firmware.
func NewCancel() *CancelFirmware {
	f := &CancelFirmware{}
	f.scanPred = f.scanMatches
	return f
}

// matches reports whether the window cancels positive p: same sending
// object as the anti's destination object, sent above the anti's receive
// timestamp, generated before the host processed the anti.
func (e cancelEntry) matches(p *proto.Packet) bool {
	return p.SrcObj == e.obj && p.SendTS > e.ts && p.PiggyAntiEpoch < e.seq
}

// scanMatches is the send-queue scan's predicate for the window in f.scan:
// a cancellable packet is removed only if a drop-ring slot is left for it.
func (f *CancelFirmware) scanMatches(p *proto.Packet) bool {
	if p.Kind != proto.KindEvent ||
		p.PiggyGVTValid || // never lose a GVT handshake in flight
		!f.scan.matches(p) {
		return false
	}
	f.scanRoom--
	return f.scanRoom >= 0
}

// OnWireReceive implements nic.Firmware: every inbound anti-message opens a
// cancellation window and triggers a send-queue scan.
//
//nicwarp:hotpath runs for every packet off the wire; the scan for every anti-message
func (f *CancelFirmware) OnWireReceive(pkt *proto.Packet, api nic.API) nic.Verdict {
	api.Charge(CyclesHeaderCheck)
	if !pkt.IsAnti() {
		return nic.VerdictForward
	}
	if pkt.WireDup {
		// A fabric-duplicated anti. The host's BIP endpoint will classify
		// and discard it, so it must not be numbered or open a second
		// cancellation window: the consistency handshake counts each anti
		// exactly once on both sides. A real BIP NIC would recognize the
		// duplicate by its sequence number at this same point.
		return nic.VerdictForward
	}
	f.antisToHost++
	f.scan = cancelEntry{obj: pkt.DstObj, ts: pkt.RecvTS, seq: f.antisToHost}
	f.entries.Push(f.scan)

	// Scan the transmit backlog for messages the rollback will cancel
	// (paper Figure 3(b): the anti with timestamp 100 kills the queued
	// messages with timestamps 102..120).
	queueLen := int64(api.SendQueueLen())
	api.Charge(queueLen * CyclesQueueScanPerPacket)
	f.scanRoom = api.Shared().Dropped.Room(f.scan.obj)
	removed := api.RemoveFromSendQueue(f.scanPred)
	if f.scanRoom < 0 {
		api.Stats().DropsDeclined.Add(int64(-f.scanRoom))
	}
	for _, p := range removed {
		f.recordDrop(api, p)
	}
	if len(removed) > 0 {
		api.Charge(CyclesNotify)
		api.NotifyHost(nic.NotifyCreditRefund)
	}
	return nic.VerdictForward
}

// OnHostSend implements nic.Firmware: apply active cancellation windows to
// outgoing positives and filter anti-messages whose positive was dropped.
//
//nicwarp:hotpath runs for every host packet dequeued for transmission
func (f *CancelFirmware) OnHostSend(pkt *proto.Packet, api nic.API) nic.Verdict {
	api.Charge(CyclesHeaderCheck)
	if !pkt.IsEventLike() {
		return nic.VerdictForward
	}
	if pkt.PiggyAntiEpoch > f.lastHostEpoch {
		f.lastHostEpoch = pkt.PiggyAntiEpoch
		f.expire()
	}
	switch pkt.Kind {
	case proto.KindEvent:
		// A packet carrying the GVT handshake piggyback is never dropped:
		// discarding it would strand the token on this NIC. Its
		// anti-message cancels it the ordinary way.
		if pkt.PiggyGVTValid {
			break
		}
		for _, e := range f.entries.Live() {
			if e.matches(pkt) {
				if api.Shared().Dropped.Room(pkt.SrcObj) == 0 {
					api.Stats().DropsDeclined.Inc()
					break
				}
				api.Charge(CyclesDropRecord + CyclesNotify)
				f.recordDrop(api, pkt)
				api.NotifyHost(nic.NotifyCreditRefund)
				return nic.VerdictDrop
			}
		}
	case proto.KindAnti:
		// An anti whose positive was dropped in place must not travel: the
		// destination never saw the positive. This is the only consumer of
		// the drop buffer: the paper also lets the host suppress the anti
		// by reading the buffer, but a host-side read can take a record
		// whose anti is already in flight to the NIC, and once rollback
		// re-execution regenerates the same message identity the stranded
		// anti annihilates a legitimate re-send (DESIGN.md §9 item 3).
		// Here drops and antis pair up in one FIFO stream.
		if api.Shared().Dropped.Take(pkt.SrcObj, dropKey(pkt)) {
			api.Charge(CyclesDropRecord)
			api.Stats().AntisFiltered.Inc()
			f.accountDrop(api, pkt)
			api.Charge(CyclesNotify)
			api.NotifyHost(nic.NotifyCreditRefund)
			return nic.VerdictDrop
		}
	}
	return nic.VerdictForward
}

// OnDoorbell implements nic.Firmware.
func (f *CancelFirmware) OnDoorbell(api nic.API) {}

// dropKey builds the full-identity drop-buffer key for a packet.
func dropKey(p *proto.Packet) nic.DropKey {
	return nic.DropKey{
		ID:      p.EventID,
		Dst:     p.DstObj,
		SendTS:  p.SendTS,
		RecvTS:  p.RecvTS,
		Payload: p.Payload,
	}
}

// recordDrop books a cancelled-in-place positive: drop-buffer entry for
// anti filtering, GVT accounting, credit refund, statistics.
//
//nicwarp:hotpath runs for every positive cancelled in place
func (f *CancelFirmware) recordDrop(api nic.API, p *proto.Packet) {
	api.Shared().Dropped.Record(p.SrcObj, dropKey(p))
	api.Stats().DroppedInPlace.Inc()
	f.accountDrop(api, p)
}

// accountDrop handles the bookkeeping shared by dropped positives and
// filtered antis: the GVT white balance and the stranded flow-control
// credit.
//
//nicwarp:hotpath runs for every packet discarded on the NIC
func (f *CancelFirmware) accountDrop(api nic.API, p *proto.Packet) {
	w := api.Shared()
	w.DroppedWhite.Add(p.ColorEpoch, 1)
	w.CreditRefund.Add(p.DstNode, 1)
	w.DropsByDst.Add(p.DstNode, 1)
	// Salvage any credit return riding on the dropped packet; the host
	// re-books it as owed to the destination.
	if p.Credits > 0 {
		w.CreditSalvage.Add(p.DstNode, int64(p.Credits))
	}
}

// expire discards cancellation windows the host has confirmed processing:
// every message generated before the host processed anti k has, by FIFO
// order, already passed this point once a packet with piggybacked count
// >= k is dequeued. Windows open in ascending seq, so the expired ones are
// a prefix.
func (f *CancelFirmware) expire() {
	for f.entries.Len() > 0 && f.entries.Front().seq <= f.lastHostEpoch {
		f.entries.Drop()
	}
}
