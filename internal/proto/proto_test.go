package proto

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"

	"nicwarp/internal/vtime"
)

func samplePacket() *Packet {
	return &Packet{
		Seq:            42,
		SrcNode:        1,
		DstNode:        5,
		Kind:           KindEvent,
		Credits:        3,
		SrcObj:         10,
		DstObj:         77,
		SendTS:         100,
		RecvTS:         150,
		EventID:        987654321,
		Payload:        0xDEADBEEF,
		PiggyGVTValid:  true,
		PiggyT:         99,
		PiggyTMin:      vtime.Infinity,
		PiggyV:         -4,
		PiggyAntiEpoch: 7,
		Token:          Token{Count: -12, Min: 88, Epoch: 3, Round: 1, Origin: 0},
		TokenGVT:       80,
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	p := samplePacket()
	data := p.MarshalAppend(nil)
	if len(data) != p.EncodedSize() {
		t.Fatalf("encoded %d bytes, EncodedSize says %d", len(data), p.EncodedSize())
	}
	q, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, q) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", q, p)
	}
}

// TestPacketIs168Bytes: the token body is one Token value with its two
// int32 fields side by side at its end. Spelled out field by field in the
// Packet, Round and Origin were each padded to eight bytes and the Packet
// was 176 bytes. Every packet the pools hand out is sized by this.
func TestPacketIs168Bytes(t *testing.T) {
	if size := unsafe.Sizeof(Packet{}); size != 168 {
		t.Fatalf("Packet is %d bytes, want 168", size)
	}
}

func TestMarshalAppendMatchesMarshal(t *testing.T) {
	p := samplePacket()
	want := p.MarshalAppend(nil)

	// Append to a prefix: the prefix must survive untouched.
	prefix := []byte{0xAA, 0xBB}
	got := p.MarshalAppend(prefix)
	if len(got) != len(prefix)+len(want) {
		t.Fatalf("appended %d bytes, want %d", len(got)-len(prefix), len(want))
	}
	if got[0] != 0xAA || got[1] != 0xBB {
		t.Fatal("MarshalAppend clobbered the prefix")
	}
	for i := range want {
		if got[len(prefix)+i] != want[i] {
			t.Fatalf("byte %d: MarshalAppend %#x != Marshal %#x", i, got[len(prefix)+i], want[i])
		}
	}

	q, err := Unmarshal(got[len(prefix):])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, q) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", q, p)
	}
}

func TestMarshalAppendDoesNotAllocateWithCapacity(t *testing.T) {
	p := samplePacket()
	buf := make([]byte, 0, p.EncodedSize())
	allocs := testing.AllocsPerRun(100, func() {
		buf = p.MarshalAppend(buf[:0])
	})
	if allocs > 0 {
		t.Fatalf("MarshalAppend into a sized buffer allocated %.1f times per run, want 0", allocs)
	}
}

func TestRoundTripAllKinds(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		p := samplePacket()
		p.Kind = k
		q, err := Unmarshal(p.MarshalAppend(nil))
		if err != nil {
			t.Fatalf("kind %v: %v", k, err)
		}
		if q.Kind != k {
			t.Fatalf("kind %v round-tripped to %v", k, q.Kind)
		}
	}
}

func TestUnmarshalRejectsBadSize(t *testing.T) {
	if _, err := Unmarshal(make([]byte, 10)); err == nil {
		t.Fatal("expected error for short packet")
	}
	if _, err := Unmarshal(make([]byte, packetWireSize+1)); err == nil {
		t.Fatal("expected error for long packet")
	}
}

func TestUnmarshalRejectsBadKind(t *testing.T) {
	p := samplePacket()
	data := p.MarshalAppend(nil)
	data[16] = 200 // Kind offset: 8 (Seq) + 4 + 4 (nodes)
	if _, err := Unmarshal(data); err == nil {
		t.Fatal("expected error for invalid kind")
	}
}

// TestUnmarshalRejectsNonzeroReserved: the reserved words are always
// encoded as zero, so an image with anything else there would decode to a
// packet that re-encodes differently — accepted images must be canonical.
func TestUnmarshalRejectsNonzeroReserved(t *testing.T) {
	for _, last := range []int{
		kindOffset + 1 + 4 + 3,          // the word after Kind and Credits
		packetWireSize - 1 - 40 - 8 - 1, // the word after PiggyV: before PiggyAntiEpoch, the token body and Sign
	} {
		data := samplePacket().MarshalAppend(nil)
		data[last] = 1
		if _, err := Unmarshal(data); err == nil {
			t.Fatalf("expected error for nonzero reserved byte %d", last)
		}
	}
}

func TestUnmarshalRejectsInconsistentSign(t *testing.T) {
	p := samplePacket()
	data := p.MarshalAppend(nil)
	data[len(data)-1] = 0xFF // corrupt trailing sign byte
	if _, err := Unmarshal(data); err == nil {
		t.Fatal("expected error for inconsistent sign byte")
	}
}

func TestSign(t *testing.T) {
	p := &Packet{Kind: KindEvent}
	if p.Sign() != SignPositive {
		t.Fatal("event sign")
	}
	p.Kind = KindAnti
	if p.Sign() != SignNegative {
		t.Fatal("anti sign")
	}
	p.Kind = KindGVTToken
	if p.Sign() != 0 {
		t.Fatal("control sign should be 0")
	}
}

func TestIsEventLike(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		p := &Packet{Kind: k}
		want := k == KindEvent || k == KindAnti
		if p.IsEventLike() != want {
			t.Fatalf("IsEventLike(%v) = %v", k, !want)
		}
	}
	if !(&Packet{Kind: KindAnti}).IsAnti() {
		t.Fatal("IsAnti")
	}
}

func TestClone(t *testing.T) {
	p := samplePacket()
	q := p.Clone()
	q.EventID = 1
	if p.EventID == 1 {
		t.Fatal("Clone did not copy")
	}
}

func TestKindString(t *testing.T) {
	names := map[Kind]string{
		KindEvent:        "event",
		KindAnti:         "anti",
		KindGVTToken:     "gvt-token",
		KindGVTBroadcast: "gvt-broadcast",
		KindGVTControl:   "gvt-control",
		KindCredit:       "credit",
		Kind(99):         "kind(99)",
	}
	for k, want := range names {
		if k.String() != want {
			t.Fatalf("Kind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
}

// TestMarshalRoundTripProperty fuzzes field values through the encoding.
func TestMarshalRoundTripProperty(t *testing.T) {
	f := func(seq uint64, src, dst int32, kindRaw uint8, sendTS, recvTS int64, id, payload uint64, v int64, epoch uint64) bool {
		p := &Packet{
			Seq:            seq,
			SrcNode:        src,
			DstNode:        dst,
			Kind:           Kind(kindRaw % uint8(numKinds)),
			SendTS:         vtime.VTime(sendTS),
			RecvTS:         vtime.VTime(recvTS),
			EventID:        id,
			Payload:        payload,
			PiggyV:         v,
			PiggyAntiEpoch: epoch,
		}
		q, err := Unmarshal(p.MarshalAppend(nil))
		return err == nil && reflect.DeepEqual(p, q)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPacketStringForms(t *testing.T) {
	// Smoke-test each branch of String.
	forms := []*Packet{
		{Kind: KindEvent}, {Kind: KindAnti}, {Kind: KindGVTToken},
		{Kind: KindGVTBroadcast}, {Kind: KindCredit},
	}
	for _, p := range forms {
		if p.String() == "" {
			t.Fatalf("empty String() for kind %v", p.Kind)
		}
	}
}

// TestUnmarshalNeverPanics feeds arbitrary bytes of the right length into
// Unmarshal: it must reject or accept, never panic.
func TestUnmarshalNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		buf := make([]byte, packetWireSize)
		copy(buf, data)
		defer func() {
			if recover() != nil {
				t.Fatal("Unmarshal panicked")
			}
		}()
		p, err := Unmarshal(buf)
		if err == nil && p == nil {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestMarshalUnmarshalIdempotent: decoding then re-encoding a valid packet
// is the identity on bytes.
func TestMarshalUnmarshalIdempotent(t *testing.T) {
	p := samplePacket()
	data := p.MarshalAppend(nil)
	q, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	data2 := q.MarshalAppend(nil)
	if len(data) != len(data2) {
		t.Fatal("length changed")
	}
	for i := range data {
		if data[i] != data2[i] {
			t.Fatalf("byte %d differs", i)
		}
	}
}

func sampleBatch() *Packet {
	return &Packet{
		Seq:            100,
		SrcNode:        2,
		DstNode:        6,
		Kind:           KindBatch,
		Credits:        5,
		ColorEpoch:     3,
		PiggyAntiEpoch: 9,
		Subs: []SubMsg{
			{Kind: KindEvent, SeqDelta: 0, SrcObj: 1, DstObj: 2, SendTS: 10, RecvTS: 20, EventID: 1001, Payload: 0xAB, ColorEpoch: 3},
			{Kind: KindAnti, SeqDelta: 1, SrcObj: 1, DstObj: 3, SendTS: 11, RecvTS: 21, EventID: 1002, Payload: 0xCD, ColorEpoch: 3},
			{Kind: KindEvent, SeqDelta: 3, SrcObj: 4, DstObj: 2, SendTS: 12, RecvTS: 22, EventID: 1003, Payload: 0xEF, ColorEpoch: 4},
		},
	}
}

func TestBatchRoundTrip(t *testing.T) {
	p := sampleBatch()
	data := p.MarshalAppend(nil)
	if len(data) != p.EncodedSize() {
		t.Fatalf("encoded %d bytes, EncodedSize says %d", len(data), p.EncodedSize())
	}
	if p.EncodedSize() <= packetWireSize {
		t.Fatal("batch frame should be larger than a fixed packet")
	}
	q, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, q) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", q, p)
	}
}

func TestBatchCloneDeepCopiesSubs(t *testing.T) {
	p := sampleBatch()
	q := p.Clone()
	q.Subs[0].EventID = 9999
	if p.Subs[0].EventID == 9999 {
		t.Fatal("Clone aliased the Subs backing array")
	}
}

func TestBatchMarshalAppendZeroAlloc(t *testing.T) {
	p := sampleBatch()
	buf := make([]byte, 0, p.EncodedSize())
	allocs := testing.AllocsPerRun(100, func() {
		buf = p.MarshalAppend(buf[:0])
	})
	if allocs != 0 {
		t.Fatalf("MarshalAppend allocated %v times with spare capacity", allocs)
	}
}

func TestBatchUnmarshalRejectsBadFrames(t *testing.T) {
	p := sampleBatch()
	data := p.MarshalAppend(nil)

	// Truncated sub records.
	if _, err := Unmarshal(data[:len(data)-1]); err == nil {
		t.Fatal("accepted truncated batch frame")
	}
	// Count larger than the payload provides.
	bad := append([]byte(nil), data...)
	bad[packetWireSize] = 0xFF
	bad[packetWireSize+1] = 0xFF
	if _, err := Unmarshal(bad); err == nil {
		t.Fatal("accepted overlong sub count")
	}
	// Control kind inside a batch.
	bad2 := append([]byte(nil), data...)
	bad2[packetWireSize+batchCountWireSize] = uint8(KindCredit)
	if _, err := Unmarshal(bad2); err == nil {
		t.Fatal("accepted control sub kind")
	}
}

// TestAppendSubSubPacketRoundTrip: folding a packet into a frame and
// viewing it back yields the same message — its own sequence number and
// event fields under the frame's route and WireDup mark — in memory and
// across the wire, with none of the per-packet header state (credits,
// piggyback block) leaking into the view.
func TestAppendSubSubPacketRoundTrip(t *testing.T) {
	f := func(base uint64, delta uint32, src, dst int32, dup, isAnti bool,
		srcObj, dstObj int32, sendTS, recvTS int64, id, payload uint64, color uint32) bool {
		base >>= 1 // room for base+delta
		kind := KindEvent
		if isAnti {
			kind = KindAnti
		}
		want := Packet{
			Seq: base + uint64(delta), SrcNode: src, DstNode: dst, WireDup: dup, Kind: kind,
			SrcObj: srcObj, DstObj: dstObj, SendTS: vtime.VTime(sendTS), RecvTS: vtime.VTime(recvTS),
			EventID: id, Payload: payload, ColorEpoch: color,
		}
		solo := want
		solo.WireDup = false
		solo.Credits = 3
		solo.PiggyGVTValid, solo.PiggyT, solo.PiggyAntiEpoch = true, 9, 7

		frame := &Packet{Kind: KindBatch, Seq: base, SrcNode: src, DstNode: dst, WireDup: dup}
		frame.AppendSub(&Packet{Kind: KindEvent, Seq: base}) // a sub before it: index != 0
		frame.AppendSub(&solo)
		var got Packet
		frame.SubPacket(1, &got)
		if !reflect.DeepEqual(got, want) {
			t.Logf("in memory: got %+v, want %+v", got, want)
			return false
		}
		decoded, err := Unmarshal(frame.MarshalAppend(nil))
		if err != nil {
			t.Log(err)
			return false
		}
		decoded.WireDup = dup // model bookkeeping, never on the wire
		got = *samplePacket() // SubPacket must overwrite every field
		decoded.SubPacket(1, &got)
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAppendSubRejectsSeqBelowBase(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for a sub-message below the frame base")
		}
	}()
	frame := &Packet{Kind: KindBatch, Seq: 10}
	frame.AppendSub(&Packet{Kind: KindEvent, Seq: 9})
}

// FuzzUnmarshal feeds arbitrary wire images to the decoder. It must never
// panic; an image it accepts must be canonical (re-encoding gives the same
// bytes back, so no two images decode to one packet); and every decoded
// sub-message must be viewable. The seeds — one packet of each kind, and
// frames of 0, 1 and 8 sub-messages — run under plain `go test`.
func FuzzUnmarshal(f *testing.F) {
	for k := Kind(0); k < numKinds; k++ {
		p := samplePacket()
		p.Kind = k
		f.Add(p.MarshalAppend(nil))
	}
	for _, n := range []int{1, 8} {
		frame := &Packet{Kind: KindBatch, Seq: 100, SrcNode: 2, DstNode: 6}
		for i := 0; i < n; i++ {
			sub := samplePacket()
			sub.Seq = frame.Seq + uint64(2*i)
			sub.Kind = Kind(i % 2) // alternate events and antis
			frame.AppendSub(sub)
		}
		f.Add(frame.MarshalAppend(nil))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Unmarshal(data)
		if err != nil {
			return
		}
		if again := p.MarshalAppend(nil); !bytes.Equal(again, data) {
			t.Fatalf("accepted image is not canonical:\n in  %x\n out %x", data, again)
		}
		var sub Packet
		for i := range p.Subs {
			p.SubPacket(i, &sub)
			if !sub.IsEventLike() || sub.Seq != p.Seq+uint64(p.Subs[i].SeqDelta) {
				t.Fatalf("sub %d of accepted frame decodes to %+v", i, sub)
			}
		}
	})
}
