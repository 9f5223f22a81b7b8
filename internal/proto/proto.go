// Package proto defines the wire format shared by every layer of the stack:
// the BIP transport header, the MPICH flow-control header, and the WARPED
// "Basic Event Message" including the fields the paper reuses for
// piggybacking ("GVT information can be piggybacked on many of the normal
// message fields, which carry pointer information only useful on the
// originating LP").
//
// The format is flattened into a single Packet struct, the way NIC firmware
// sees a frame: one header it can parse with fixed offsets. Packets carry a
// real binary encoding (MarshalAppend/Unmarshal) so the hardware model charges
// bandwidth for actual on-wire bytes, and so the encoding itself is tested.
package proto

import (
	"encoding/binary"
	"fmt"

	"nicwarp/internal/vtime"
)

// Kind discriminates packet types at the NIC. The NIC firmware dispatches on
// this field, exactly as the paper's firmware distinguishes GVT tokens and
// anti-messages from ordinary event traffic.
type Kind uint8

const (
	// KindEvent is a positive Time Warp event message.
	KindEvent Kind = iota
	// KindAnti is an anti-message cancelling a previously sent event.
	KindAnti
	// KindGVTToken is a Mattern GVT token circulating around the LP ring.
	KindGVTToken
	// KindGVTBroadcast announces a newly computed GVT value to all LPs.
	KindGVTBroadcast
	// KindGVTControl is a host-generated GVT control message used by the
	// host-only Mattern implementation (the WARPED baseline), where tokens
	// are ordinary host messages.
	KindGVTControl
	// KindCredit is an explicit MPICH credit-return message, sent when the
	// receiver has no reverse traffic to piggyback credit on.
	KindCredit
	// KindGVTReduce carries one subtree's partial GVT reduction up the
	// node tree (tree-mode GVT): the accumulated white-message balance and
	// min of LVTs/red sends over the sender's whole subtree, folded NIC to
	// NIC as in the Yu/Buntinas/Panda NIC-based collective protocols. Uses
	// the token body fields.
	KindGVTReduce
	// KindBatch is a NIC-assembled frame carrying N event-like sub-messages
	// to the same destination node under one wire header: one BIP sequence
	// range, MPICH credits piggybacked once, one link arbitration. The
	// outer header fields (Seq, Credits, piggyback block)
	// describe the frame; each SubMsg carries the per-event fields.
	KindBatch
	numKinds
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindEvent:
		return "event"
	case KindAnti:
		return "anti"
	case KindGVTToken:
		return "gvt-token"
	case KindGVTBroadcast:
		return "gvt-broadcast"
	case KindGVTControl:
		return "gvt-control"
	case KindCredit:
		return "credit"
	case KindGVTReduce:
		return "gvt-reduce"
	case KindBatch:
		return "batch"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Sign values for Time Warp messages.
const (
	SignPositive int8 = 1
	SignNegative int8 = -1
)

// Packet is one frame as seen by the NIC. Fixed-size encoding; see
// EncodedSize.
type Packet struct {
	// ---- BIP transport header ----
	Seq     uint64 // per (SrcNode,DstNode) sequence number, assigned by BIP
	SrcNode int32  // sending node (LP) id
	DstNode int32  // destination node (LP) id; -1 means broadcast

	// WireDup marks a fabric-injected duplicate (fault plane): model
	// bookkeeping only, never encoded into the wire image. The sender
	// reserved exactly one rx slot for the original packet, so a
	// duplicate arrival must not release (or require) a slot.
	WireDup bool

	// ---- MPICH flow-control header ----
	Kind    Kind
	Credits int32 // piggybacked credit returned to SrcNode's view of DstNode

	// ---- WARPED Basic Event Message ----
	SrcObj  int32 // sending simulation object (global id)
	DstObj  int32 // destination simulation object (global id)
	SendTS  vtime.VTime
	RecvTS  vtime.VTime
	EventID uint64 // unique id; anti-messages carry the id of their positive
	Payload uint64 // application payload (opaque to the kernel and NIC)

	// ColorEpoch stamps event-like packets with the sender's GVT
	// computation epoch at send time. A message is "white" with respect to
	// computation C when its stamp is below C, "red" otherwise — Mattern's
	// colours generalized to sequential computations.
	ColorEpoch uint32

	// ---- Piggyback fields (the paper's "four unused fields") ----
	// GVT handshake: host -> NIC variable report for the NIC-level Mattern
	// implementation. Valid when PiggyGVTValid.
	PiggyGVTValid bool
	PiggyT        vtime.VTime // host's LVT estimate (T)
	PiggyTMin     vtime.VTime // min timestamp of red messages sent (Tmin)
	PiggyV        int64       // outstanding white message count (V)

	// Early-cancellation consistency: the host piggybacks the epoch of the
	// last anti-message it has processed ("the host reports the last
	// received anti-stamp to the NIC by piggybacking ... on all outgoing
	// messages"). The epoch is a per-node monotone counter over processed
	// anti-messages; the NIC compares it with the epoch at which it handed
	// an anti-message up to decide which queued sends predate the host's
	// knowledge of the rollback.
	PiggyAntiEpoch uint64

	// ---- GVT token body (valid for KindGVTToken/Reduce/Broadcast/Control) ----
	Token    Token
	TokenGVT vtime.VTime // final value (announcements only)

	// ---- Batch body (valid for KindBatch only) ----
	// Sub-messages folded into this frame, in BIP sequence order. The
	// frame's Seq is the sequence number of the first sub-message; each
	// sub carries its offset from that base (SeqDelta), so firmware drops
	// at assembly time leave representable holes inside the range.
	Subs []SubMsg
}

// Token is the GVT token body: one round's running white-message balance
// and minimum, and the computation and round they belong to. It is the one
// value every GVT shape moves — host Mattern's control packet LP to LP, the
// NIC ring token, a tree start or one subtree's reduce — and the NIC parks
// it in the shared window while it waits for the host's handshake.
type Token struct {
	Count  int64       // accumulated white-message balance
	Min    vtime.VTime // accumulated min of LVTs and red sends
	Epoch  uint64      // id of the GVT computation (root-local counter)
	Round  int32       // 0 = first cut round; host Mattern's announcement is -1
	Origin int32       // root LP of this computation
}

// SubMsg is one event-like message folded into a KindBatch frame. It
// carries exactly the WARPED Basic Event Message fields plus the BIP
// sequence offset; frame-level fields (credits, piggyback block) live once
// in the enclosing Packet header.
type SubMsg struct {
	Kind       Kind   // KindEvent or KindAnti
	SeqDelta   uint32 // BIP seq = frame.Seq + SeqDelta
	SrcObj     int32
	DstObj     int32
	SendTS     vtime.VTime
	RecvTS     vtime.VTime
	EventID    uint64
	Payload    uint64
	ColorEpoch uint32
}

// subMsgWireSize is the fixed encoded size in bytes of one SubMsg record.
const subMsgWireSize = 1 + 4 + // Kind, SeqDelta
	4 + 4 + 8 + 8 + 8 + 8 + // SrcObj..Payload
	4 + // ColorEpoch
	1 // Sign byte (redundant with Kind; kept for firmware parity)

// batchCountWireSize is the u16 sub-message count that follows the fixed
// header of a KindBatch frame.
const batchCountWireSize = 2

// MaxBatchSubs bounds the number of sub-messages one frame can carry
// (the count is encoded as a u16).
const MaxBatchSubs = 1<<16 - 1

// AppendSub folds the event-like packet p into frame f as its next
// sub-message: the Basic Event Message fields are copied and p's BIP
// sequence number is kept as an offset from the frame's base. SubPacket is
// the inverse; with the wire codec below they are the only code that spells
// out the sub-message field list.
func (f *Packet) AppendSub(p *Packet) {
	if p.Seq < f.Seq {
		panic("proto: batch sub-message sequence below frame base")
	}
	f.Subs = append(f.Subs, SubMsg{
		Kind:       p.Kind,
		SeqDelta:   uint32(p.Seq - f.Seq),
		SrcObj:     p.SrcObj,
		DstObj:     p.DstObj,
		SendTS:     p.SendTS,
		RecvTS:     p.RecvTS,
		EventID:    p.EventID,
		Payload:    p.Payload,
		ColorEpoch: p.ColorEpoch,
	})
}

// SubPacket overwrites *into with sub-message i of frame f as the solo
// packet it was folded from: its own sequence number and event fields under
// the frame's route and WireDup mark. The frame-level header (credits,
// piggyback block) is booked once per frame and stays zero in the view.
func (f *Packet) SubPacket(i int, into *Packet) {
	s := &f.Subs[i]
	*into = Packet{
		Seq:        f.Seq + uint64(s.SeqDelta),
		SrcNode:    f.SrcNode,
		DstNode:    f.DstNode,
		WireDup:    f.WireDup,
		Kind:       s.Kind,
		SrcObj:     s.SrcObj,
		DstObj:     s.DstObj,
		SendTS:     s.SendTS,
		RecvTS:     s.RecvTS,
		EventID:    s.EventID,
		Payload:    s.Payload,
		ColorEpoch: s.ColorEpoch,
	}
}

// Sign returns the Time Warp sign of the sub-message.
func (s *SubMsg) Sign() int8 {
	switch s.Kind {
	case KindEvent:
		return SignPositive
	case KindAnti:
		return SignNegative
	}
	return 0
}

// packetWireSize is the fixed encoded size in bytes of the header fields
// above. Event payloads are modeled as part of Payload; the paper's models
// exchange small fixed-size events, matching WARPED's Basic Event Message.
// The reserved header word is where the paper's NIC would write
// receive-side credit repair; the reproduction refunds at the sender
// (DESIGN.md §9). The reserved piggyback word is the fourth of the paper's
// "four unused fields", which the handshake does not need: the NIC keeps
// the round it waits on in its shared window. Both are always zero, and
// they stay in the image so wire sizes — and with them every modeled
// transfer time — are what the figures were made with.
const packetWireSize = 8 + 4 + 4 + // Seq, SrcNode, DstNode
	1 + 4 + 4 + // Kind, Credits, reserved (zero)
	4 + 4 + 8 + 8 + 8 + 8 + // SrcObj..Payload
	4 + // ColorEpoch
	1 + 8 + 8 + 8 + 4 + // piggyback GVT, reserved (zero)
	8 + // PiggyAntiEpoch
	4 + 8 + 8 + 8 + 4 + 8 + // token body
	1 // Sign byte (encoded from Kind redundancy; kept for firmware parity)

// EncodedSize returns the on-wire size in bytes of the packet, used by the
// hardware model to charge bus and link bandwidth. Fixed for all kinds
// except KindBatch, whose size grows with the sub-message count — that
// growth is what makes a frame one arbitrated unit that still pays
// bandwidth for every event it carries.
func (p *Packet) EncodedSize() int {
	if p.Kind == KindBatch {
		return packetWireSize + batchCountWireSize + len(p.Subs)*subMsgWireSize
	}
	return packetWireSize
}

// IsAnti reports whether the packet is an anti-message.
func (p *Packet) IsAnti() bool { return p.Kind == KindAnti }

// IsEventLike reports whether the packet carries a Time Warp event (positive
// or anti) as opposed to control traffic.
func (p *Packet) IsEventLike() bool { return p.Kind == KindEvent || p.Kind == KindAnti }

// Sign returns the Time Warp sign of the packet (+1 positive event, -1
// anti-message). Zero for non-event packets.
func (p *Packet) Sign() int8 {
	switch p.Kind {
	case KindEvent:
		return SignPositive
	case KindAnti:
		return SignNegative
	}
	return 0
}

// Clone returns a copy of the packet. Firmware that re-routes or mutates
// packets clones first, mirroring the copy from host memory into NIC SRAM.
// Batch sub-messages are deep-copied: the original frame's Subs backing
// array returns to a pool when the frame is consumed, so a clone (e.g. a
// duplicate the fabric injects for a port with no pool) must not alias it.
func (p *Packet) Clone() *Packet {
	q := *p
	if p.Subs != nil {
		q.Subs = append([]SubMsg(nil), p.Subs...) //nicwarp:alloc a heap copy, made only where no pool serves the caller (Pool.Clone)
	}
	return &q
}

// String renders a compact diagnostic form.
func (p *Packet) String() string {
	switch p.Kind {
	case KindEvent, KindAnti:
		return fmt.Sprintf("%s n%d->n%d obj%d->obj%d st=%v rt=%v id=%d",
			p.Kind, p.SrcNode, p.DstNode, p.SrcObj, p.DstObj, p.SendTS, p.RecvTS, p.EventID)
	case KindGVTToken, KindGVTReduce:
		return fmt.Sprintf("%s n%d->n%d round=%d count=%d min=%v epoch=%d",
			p.Kind, p.SrcNode, p.DstNode, p.Token.Round, p.Token.Count, p.Token.Min, p.Token.Epoch)
	case KindGVTBroadcast:
		return fmt.Sprintf("%s n%d->n%d gvt=%v epoch=%d", p.Kind, p.SrcNode, p.DstNode, p.TokenGVT, p.Token.Epoch)
	default:
		return fmt.Sprintf("%s n%d->n%d", p.Kind, p.SrcNode, p.DstNode)
	}
}

// Checksum is the modeled link-level CRC over a wire image (FNV-1a; the
// real Myrinet link computes a hardware CRC with the same role). The
// fault plane uses it to decide whether injected wire corruption is
// *detected* — a detected corruption becomes a link-level retransmission,
// an undetected one would pass through silently.
func Checksum(buf []byte) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for _, b := range buf {
		h ^= uint32(b)
		h *= prime32
	}
	return h
}

// MarshalAppend appends the packet's wire representation to buf and returns
// the extended slice, allocating nothing when buf has packetWireSize spare
// capacity. Callers that encode in a loop reuse one buffer with
// buf = pkt.MarshalAppend(buf[:0]).
func (p *Packet) MarshalAppend(buf []byte) []byte {
	buf = binary.BigEndian.AppendUint64(buf, p.Seq)
	buf = binary.BigEndian.AppendUint32(buf, uint32(p.SrcNode))
	buf = binary.BigEndian.AppendUint32(buf, uint32(p.DstNode))
	buf = append(buf, uint8(p.Kind))
	buf = binary.BigEndian.AppendUint32(buf, uint32(p.Credits))
	buf = binary.BigEndian.AppendUint32(buf, 0) // reserved
	buf = binary.BigEndian.AppendUint32(buf, uint32(p.SrcObj))
	buf = binary.BigEndian.AppendUint32(buf, uint32(p.DstObj))
	buf = binary.BigEndian.AppendUint64(buf, uint64(p.SendTS))
	buf = binary.BigEndian.AppendUint64(buf, uint64(p.RecvTS))
	buf = binary.BigEndian.AppendUint64(buf, p.EventID)
	buf = binary.BigEndian.AppendUint64(buf, p.Payload)
	buf = binary.BigEndian.AppendUint32(buf, p.ColorEpoch)
	if p.PiggyGVTValid {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = binary.BigEndian.AppendUint64(buf, uint64(p.PiggyT))
	buf = binary.BigEndian.AppendUint64(buf, uint64(p.PiggyTMin))
	buf = binary.BigEndian.AppendUint64(buf, uint64(p.PiggyV))
	buf = binary.BigEndian.AppendUint32(buf, 0) // reserved
	buf = binary.BigEndian.AppendUint64(buf, p.PiggyAntiEpoch)
	buf = binary.BigEndian.AppendUint32(buf, uint32(p.Token.Round))
	buf = binary.BigEndian.AppendUint64(buf, uint64(p.Token.Count))
	buf = binary.BigEndian.AppendUint64(buf, uint64(p.Token.Min))
	buf = binary.BigEndian.AppendUint64(buf, uint64(p.TokenGVT))
	buf = binary.BigEndian.AppendUint32(buf, uint32(p.Token.Origin))
	buf = binary.BigEndian.AppendUint64(buf, p.Token.Epoch)
	buf = append(buf, uint8(p.Sign()))
	if p.Kind == KindBatch {
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(p.Subs)))
		for i := range p.Subs {
			s := &p.Subs[i]
			buf = append(buf, uint8(s.Kind))
			buf = binary.BigEndian.AppendUint32(buf, s.SeqDelta)
			buf = binary.BigEndian.AppendUint32(buf, uint32(s.SrcObj))
			buf = binary.BigEndian.AppendUint32(buf, uint32(s.DstObj))
			buf = binary.BigEndian.AppendUint64(buf, uint64(s.SendTS))
			buf = binary.BigEndian.AppendUint64(buf, uint64(s.RecvTS))
			buf = binary.BigEndian.AppendUint64(buf, s.EventID)
			buf = binary.BigEndian.AppendUint64(buf, s.Payload)
			buf = binary.BigEndian.AppendUint32(buf, s.ColorEpoch)
			buf = append(buf, uint8(s.Sign()))
		}
	}
	return buf
}

// kindOffset is the byte offset of the Kind field in the fixed header,
// used to peek the discriminator before committing to a frame length.
const kindOffset = 8 + 4 + 4

// Unmarshal decodes a packet from its wire representation.
func Unmarshal(data []byte) (*Packet, error) {
	if len(data) < packetWireSize {
		return nil, fmt.Errorf("proto: bad packet size %d, want at least %d", len(data), packetWireSize)
	}
	if Kind(data[kindOffset]) == KindBatch {
		return unmarshalBatch(data)
	}
	if len(data) != packetWireSize {
		return nil, fmt.Errorf("proto: bad packet size %d, want %d", len(data), packetWireSize)
	}
	return decodeFixed(data)
}

// decodeFixed decodes the fixed header fields from the first
// packetWireSize bytes of data.
func decodeFixed(data []byte) (*Packet, error) {
	p := &Packet{}
	off := 0
	get64 := func() uint64 { v := binary.BigEndian.Uint64(data[off:]); off += 8; return v }
	get32 := func() uint32 { v := binary.BigEndian.Uint32(data[off:]); off += 4; return v }
	get8 := func() uint8 { v := data[off]; off++; return v }

	p.Seq = get64()
	p.SrcNode = int32(get32())
	p.DstNode = int32(get32())
	k := get8()
	if k >= uint8(numKinds) {
		return nil, fmt.Errorf("proto: bad packet kind %d", k)
	}
	p.Kind = Kind(k)
	p.Credits = int32(get32())
	if reserved := get32(); reserved != 0 {
		return nil, fmt.Errorf("proto: reserved header word %#x, want 0", reserved)
	}
	p.SrcObj = int32(get32())
	p.DstObj = int32(get32())
	p.SendTS = vtime.VTime(get64())
	p.RecvTS = vtime.VTime(get64())
	p.EventID = get64()
	p.Payload = get64()
	p.ColorEpoch = get32()
	valid := get8()
	if valid > 1 {
		return nil, fmt.Errorf("proto: piggyback-valid flag byte %d, want 0 or 1", valid)
	}
	p.PiggyGVTValid = valid == 1
	p.PiggyT = vtime.VTime(get64())
	p.PiggyTMin = vtime.VTime(get64())
	p.PiggyV = int64(get64())
	if reserved := get32(); reserved != 0 {
		return nil, fmt.Errorf("proto: reserved piggyback word %#x, want 0", reserved)
	}
	p.PiggyAntiEpoch = get64()
	p.Token.Round = int32(get32())
	p.Token.Count = int64(get64())
	p.Token.Min = vtime.VTime(get64())
	p.TokenGVT = vtime.VTime(get64())
	p.Token.Origin = int32(get32())
	p.Token.Epoch = get64()
	sign := int8(get8())
	if sign != p.Sign() {
		return nil, fmt.Errorf("proto: sign byte %d inconsistent with kind %s", sign, p.Kind)
	}
	return p, nil
}

// unmarshalBatch decodes a KindBatch frame: the fixed header followed by a
// u16 sub-message count and that many SubMsg records.
func unmarshalBatch(data []byte) (*Packet, error) {
	if len(data) < packetWireSize+batchCountWireSize {
		return nil, fmt.Errorf("proto: truncated batch frame, size %d", len(data))
	}
	p, err := decodeFixed(data[:packetWireSize])
	if err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint16(data[packetWireSize:]))
	want := packetWireSize + batchCountWireSize + n*subMsgWireSize
	if len(data) != want {
		return nil, fmt.Errorf("proto: bad batch frame size %d, want %d for %d subs", len(data), want, n)
	}
	if n > 0 {
		p.Subs = make([]SubMsg, n)
	}
	off := packetWireSize + batchCountWireSize
	get64 := func() uint64 { v := binary.BigEndian.Uint64(data[off:]); off += 8; return v }
	get32 := func() uint32 { v := binary.BigEndian.Uint32(data[off:]); off += 4; return v }
	get8 := func() uint8 { v := data[off]; off++; return v }
	for i := range p.Subs {
		s := &p.Subs[i]
		k := get8()
		if Kind(k) != KindEvent && Kind(k) != KindAnti {
			return nil, fmt.Errorf("proto: bad batch sub kind %d", k)
		}
		s.Kind = Kind(k)
		s.SeqDelta = get32()
		s.SrcObj = int32(get32())
		s.DstObj = int32(get32())
		s.SendTS = vtime.VTime(get64())
		s.RecvTS = vtime.VTime(get64())
		s.EventID = get64()
		s.Payload = get64()
		s.ColorEpoch = get32()
		if sign := int8(get8()); sign != s.Sign() {
			return nil, fmt.Errorf("proto: batch sub %d sign byte %d inconsistent with kind %s", i, sign, s.Kind)
		}
	}
	return p, nil
}
