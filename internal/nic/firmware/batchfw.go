package firmware

import (
	"fmt"

	"nicwarp/internal/nic"
	"nicwarp/internal/proto"
)

// BatchFirmware is the send-batching / anti-coalescing offload: when the
// transmit pump dequeues an event-like packet, the firmware gathers the
// queued packets bound for the same destination and folds them — positives
// and anti-messages alike — into one KindBatch frame behind a single wire
// header. One frame costs one send credit, one receive slot, one bus DMA
// on each side, and one arbitrated unit in the fabric; the folded messages
// cost PerSubMsgCycles of LanAI processor work each, which is what keeps
// the batching-vs-latency tradeoff a modeled curve rather than a free
// lunch (sPIN-style per-handler cycle budgeting).
//
// BatchFirmware composes by wrapping: every gathered packet still passes
// the inner firmware's OnHostSend exactly once, so early cancellation can
// drop an individual sub-message at assembly time (the frame then carries
// a sequence hole the receiver's BIP endpoint records through the ordinary
// missing-range machinery, and the stranded credit flows through the same
// refund path as a solo drop). On the receive side a frame is expanded
// back into per-sub-message views for the inner firmware, preserving the
// anti-message numbering that the cancellation consistency handshake
// depends on.
type BatchFirmware struct {
	inner        nic.Firmware
	max          int
	perSubCycles int64

	// sub is the reusable synthesized per-sub-message view handed to the
	// inner firmware on the receive side. It is valid only for the
	// duration of one inner hook call; no current firmware retains packet
	// pointers past its hook (the NIC clears its scratch views on the same
	// contract).
	sub proto.Packet
}

// NewBatch wraps inner with batch assembly. max is the frame capacity in
// sub-messages (counting the head); perSubCycles is the NIC processor work
// charged per sub-message folded or expanded.
func NewBatch(inner nic.Firmware, max int, perSubCycles int64) *BatchFirmware {
	if inner == nil {
		panic("firmware: NewBatch nil inner")
	}
	if max < 2 {
		panic("firmware: NewBatch max must be >= 2")
	}
	if max > proto.MaxBatchSubs {
		max = proto.MaxBatchSubs
	}
	return &BatchFirmware{inner: inner, max: max, perSubCycles: perSubCycles}
}

// Name implements nic.Firmware.
func (f *BatchFirmware) Name() string {
	return fmt.Sprintf("batch%d(%s)", f.max, f.inner.Name())
}

// OnHostSend implements nic.Firmware by delegating: the dequeued head is
// inspected by the inner firmware first; assembly runs afterwards through
// the Batcher hook (AssembleBatch), once the head is known to travel.
func (f *BatchFirmware) OnHostSend(pkt *proto.Packet, api nic.API) nic.Verdict {
	return f.inner.OnHostSend(pkt, api)
}

// OnDoorbell implements nic.Firmware.
func (f *BatchFirmware) OnDoorbell(api nic.API) { f.inner.OnDoorbell(api) }

// OnWireReceive implements nic.Firmware: an inbound batch frame is
// expanded into per-sub-message views so the inner firmware observes the
// same traffic it would have seen unbatched — in particular, each folded
// anti-message is numbered and opens its cancellation window exactly as a
// solo anti would. Everything else passes straight through.
func (f *BatchFirmware) OnWireReceive(pkt *proto.Packet, api nic.API) nic.Verdict {
	if pkt.Kind != proto.KindBatch {
		return f.inner.OnWireReceive(pkt, api)
	}
	api.Charge(CyclesHeaderCheck + f.perSubCycles*int64(len(pkt.Subs)))
	for i := range pkt.Subs {
		s := &pkt.Subs[i]
		f.sub = proto.Packet{
			Seq:        pkt.Seq + uint64(s.SeqDelta),
			SrcNode:    pkt.SrcNode,
			DstNode:    pkt.DstNode,
			WireDup:    pkt.WireDup,
			Kind:       s.Kind,
			SrcObj:     s.SrcObj,
			DstObj:     s.DstObj,
			SendTS:     s.SendTS,
			RecvTS:     s.RecvTS,
			EventID:    s.EventID,
			Payload:    s.Payload,
			ColorEpoch: s.ColorEpoch,
		}
		if v := f.inner.OnWireReceive(&f.sub, api); v != nic.VerdictForward {
			// A frame travels and is delivered as a unit; no composed
			// firmware consumes event-like traffic on receive, and a
			// partial frame consumption has no meaning here.
			panic(fmt.Sprintf("firmware: inner %s returned %v for batched sub-message", f.inner.Name(), v))
		}
	}
	f.sub = proto.Packet{}
	return nic.VerdictForward
}

// AssembleBatch implements nic.Batcher: called by the transmit pump after
// the head packet cleared the inner firmware with a Forward verdict. It
// gathers the queued same-destination partners (up to capacity, stopping
// at the first packet that must dequeue alone — the gathered sequence
// numbers stay a contiguous prefix of the per-destination stream), runs
// each partner through the inner firmware, and folds the survivors behind
// one header. Returns nil when no partner is available, leaving the head
// to travel as an ordinary packet.
func (f *BatchFirmware) AssembleBatch(head *proto.Packet, api nic.API) *proto.Packet {
	partners := api.GatherBatch(head.DstNode, f.max-1)
	if len(partners) == 0 {
		return nil
	}
	frame := api.AllocFrame()
	frame.Kind = proto.KindBatch
	frame.Seq = head.Seq
	frame.SrcNode = head.SrcNode
	frame.DstNode = head.DstNode
	frame.Credits = head.Credits
	frame.CreditRepair = head.CreditRepair
	frame.ColorEpoch = head.ColorEpoch
	frame.PiggyAntiEpoch = head.PiggyAntiEpoch
	f.fold(frame, head)
	api.RecycleHostPacket(head)
	for _, p := range partners {
		// Each partner passes the inner firmware exactly once, here — the
		// white-send GVT count, piggyback extraction, and the early-cancel
		// drop predicate all see the same per-packet traffic as an
		// unbatched run.
		if v := f.inner.OnHostSend(p, api); v != nic.VerdictForward {
			// Cancelled at assembly: the frame keeps going with a hole at
			// this sub-message's sequence number. The drop is booked by
			// the inner firmware (drop buffer, credit refund, white
			// balance) and observed by the host like any send-side drop.
			api.DiscardHostPacket(p)
			api.RecycleHostPacket(p)
			continue
		}
		// Flow-control state rides once per frame: fold any credit return
		// or repaired credit the partner carried into the header.
		frame.Credits += p.Credits
		frame.CreditRepair += p.CreditRepair
		if p.PiggyAntiEpoch > frame.PiggyAntiEpoch {
			frame.PiggyAntiEpoch = p.PiggyAntiEpoch
		}
		f.fold(frame, p)
		api.RecycleHostPacket(p)
	}
	api.Charge(f.perSubCycles * int64(len(frame.Subs)))
	return frame
}

// fold appends one packet's event fields to the frame as a sub-message.
func (f *BatchFirmware) fold(frame, p *proto.Packet) {
	if p.Seq < frame.Seq {
		panic("firmware: batch partner sequence below frame base")
	}
	frame.Subs = append(frame.Subs, proto.SubMsg{
		Kind:       p.Kind,
		SeqDelta:   uint32(p.Seq - frame.Seq),
		SrcObj:     p.SrcObj,
		DstObj:     p.DstObj,
		SendTS:     p.SendTS,
		RecvTS:     p.RecvTS,
		EventID:    p.EventID,
		Payload:    p.Payload,
		ColorEpoch: p.ColorEpoch,
	})
}
