package nic

import (
	"reflect"
	"slices"
	"testing"

	"nicwarp/internal/des"
	"nicwarp/internal/proto"
	"nicwarp/internal/simnet"
	"nicwarp/internal/vtime"
)

// runUntil advances the engine in small steps until cond holds (or the
// deadline passes, failing the test).
func runUntil(t *testing.T, eng *des.Engine, cond func() bool, what string) {
	t.Helper()
	start := eng.Now()
	for step := start; step < start+vtime.Second; step += vtime.Microsecond {
		if cond() {
			return
		}
		eng.Run(step)
	}
	t.Fatalf("condition never held: %s", what)
}

// TestSendQCompactionWithFirmwareDrops: firmware removals from the middle
// of the transmit queue (early cancellation editing it in place),
// interleaved with departures from its head and with refills past every
// depth it has reached, must neither lose nor duplicate nor reorder
// entries. That a refill slides the consumed prefix instead of growing the
// queue is dense's TestFIFOSlidesConsumedPrefix.
func TestSendQCompactionWithFirmwareDrops(t *testing.T) {
	r := newRig(t, 2, func(i int) Firmware {
		if i == 0 {
			return &stubFirmware{onWireReceive: func(p *proto.Packet, a API) Verdict {
				if p.IsAnti() {
					removed := a.RemoveFromSendQueue(func(q *proto.Packet) bool {
						return q.SendTS > p.RecvTS
					})
					a.Stats().DroppedInPlace.Add(int64(removed))
				}
				return VerdictForward
			}}
		}
		return &stubFirmware{}
	})
	n0 := r.nics[0]
	total := 0
	id := 0
	enq := func(k int) {
		for ; k > 0; k-- {
			p := evPkt(0, 1)
			p.EventID = uint64(id)
			p.SendTS = vtime.VTime(id)
			n0.HostEnqueue(p)
			total++
			id++
		}
	}
	// cancelAbove sends n0 an anti that drops every queued packet sent
	// above ts, and waits until the drop happened.
	cancelAbove := func(ts int, what string) {
		before := n0.Stats.DroppedInPlace.Value()
		r.nics[1].HostEnqueue(&proto.Packet{Kind: proto.KindAnti, SrcNode: 1, DstNode: 0, RecvTS: vtime.VTime(ts)})
		runUntil(t, r.eng, func() bool { return n0.Stats.DroppedInPlace.Value() > before }, what)
	}

	// The first packet enters flight immediately, the rest queue behind it;
	// let a prefix depart, then drop from the middle of what is left.
	enq(9)
	runUntil(t, r.eng, func() bool { return n0.Stats.HostTx.Value() >= 3 }, "transmit head advanced")
	cancelAbove(6, "firmware dropped queued packets")

	// Refill deeper each round, let some depart, and drop against the
	// refilled queue.
	for round := 0; round < 3; round++ {
		enq(8 + 4*round)
		tx := n0.Stats.HostTx.Value()
		runUntil(t, r.eng, func() bool { return n0.Stats.HostTx.Value() > tx }, "departure after refill")
		cancelAbove(id-3, "firmware drop against the refilled queue")
	}
	r.eng.Run(vtime.ModelInfinity)

	dropped := n0.Stats.DroppedInPlace.Value()
	var delivered []uint64
	for _, p := range r.toHost[1] {
		if p.Kind == proto.KindEvent {
			delivered = append(delivered, p.EventID)
		}
	}
	if int64(len(delivered))+dropped != int64(total) {
		t.Fatalf("conservation: delivered %d + dropped %d != enqueued %d", len(delivered), dropped, total)
	}
	for i := 1; i < len(delivered); i++ {
		if delivered[i] <= delivered[i-1] {
			t.Fatalf("FIFO order violated under firmware removals: %v", delivered)
		}
	}
	if n0.sendQ.Len() != 0 || !n0.Idle() {
		t.Fatal("sender did not drain")
	}
}

// batchRig builds a 2-node rig with the given NIC config (newRig pins
// DefaultConfig).
func batchRig(t *testing.T, cfg Config, fw func(i int) Firmware) *rig {
	t.Helper()
	r := &rig{
		eng:    des.NewEngine(),
		toHost: make([][]*proto.Packet, 2),
		bells:  make([][]NotifyTag, 2),
	}
	r.fabric = simnet.NewFabric(simnet.DefaultConfig(), 2)
	for i := 0; i < 2; i++ {
		i := i
		nc := New(r.eng, i, cfg, r.fabric, fw(i))
		nc.Wire(
			func(p *proto.Packet, done func()) {
				r.toHost[i] = append(r.toHost[i], p)
				done()
			},
			func(tag NotifyTag) { r.bells[i] = append(r.bells[i], tag) },
		)
		r.nics = append(r.nics, nc)
	}
	for _, nc := range r.nics {
		nc.WirePeers(func(node int) *NIC { return r.nics[node] })
	}
	return r
}

// seqPkt builds a stamped event packet whose event fields are all derived
// from seq, so a folded sub-message can be checked against its source.
func seqPkt(src, dst int32, seq uint64) *proto.Packet {
	p := evPkt(src, dst)
	p.Seq = seq
	p.EventID = seq
	p.SrcObj = int32(10 + seq)
	p.DstObj = int32(20 + seq)
	p.SendTS = vtime.VTime(100 + seq)
	p.RecvTS = vtime.VTime(200 + seq)
	p.Payload = 1000 + seq
	p.ColorEpoch = uint32(seq % 3)
	return p
}

// checkSubs fails unless frame carries exactly the packets seqPkt builds
// for wantSeqs, in order, every folded field intact.
func checkSubs(t *testing.T, frame *proto.Packet, wantSeqs ...uint64) {
	t.Helper()
	if len(frame.Subs) != len(wantSeqs) {
		t.Fatalf("frame carries %d subs, want %d", len(frame.Subs), len(wantSeqs))
	}
	var got proto.Packet
	for i, seq := range wantSeqs {
		frame.SubPacket(i, &got)
		if want := seqPkt(frame.SrcNode, frame.DstNode, seq); !reflect.DeepEqual(&got, want) {
			t.Fatalf("sub %d = %+v, want %+v", i, got, *want)
		}
	}
}

// TestBatchAssemblyOnPump checks the transmit path end to end under plain
// forwarding firmware: queued same-destination packets leave as one frame,
// counted once on the wire, with the batch counters tracking contents.
func TestBatchAssemblyOnPump(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BatchMax = 8
	r := batchRig(t, cfg, func(i int) Firmware { return &stubFirmware{} })
	// Head enters flight solo; the next four queue and batch behind it.
	for s := uint64(1); s <= 5; s++ {
		r.nics[0].HostEnqueue(seqPkt(0, 1, s))
	}
	r.eng.Run(vtime.ModelInfinity)

	var frames, solos int
	for _, p := range r.toHost[1] {
		if p.Kind == proto.KindBatch {
			frames++
			if p.Seq != 2 {
				t.Fatalf("frame base %d, want 2", p.Seq)
			}
			checkSubs(t, p, 2, 3, 4, 5)
		} else {
			solos++
		}
	}
	if frames != 1 || solos != 1 {
		t.Fatalf("got %d frames and %d solo packets, want 1 and 1", frames, solos)
	}
	if got := r.nics[0].Stats.BatchFrames.Value(); got != 1 {
		t.Fatalf("BatchFrames = %d", got)
	}
	if got := r.nics[0].Stats.BatchSubs.Value(); got != 4 {
		t.Fatalf("BatchSubs = %d", got)
	}
	// One frame + one solo = two wire packets for five messages.
	if got := r.nics[0].Stats.HostTx.Value(); got != 2 {
		t.Fatalf("HostTx = %d, want 2", got)
	}
	// Assembly and expansion are priced per sub-message, plus one header
	// check for the inbound frame; the stub firmware charges nothing.
	if got, want := r.nics[0].Stats.FirmwareCycles.Value(), 4*cfg.PerSubMsgCycles; got != want {
		t.Fatalf("sender charged %d cycles, want %d", got, want)
	}
	if got, want := r.nics[1].Stats.FirmwareCycles.Value(), frameHeaderCycles+4*cfg.PerSubMsgCycles; got != want {
		t.Fatalf("receiver charged %d cycles, want %d", got, want)
	}
}

// TestBatchingComposesWithAnyFirmware: batching is the NIC's business, so
// a firmware that knows nothing about frames still batches, and still sees
// every message exactly once on each side — including the one it drops at
// assembly time, which leaves a hole in the frame's sequence range.
func TestBatchingComposesWithAnyFirmware(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BatchMax = 4
	sent := map[uint64]int{}
	received := map[uint64]int{}
	r := batchRig(t, cfg, func(i int) Firmware {
		if i == 0 {
			return &stubFirmware{onHostSend: func(p *proto.Packet, _ API) Verdict {
				sent[p.Seq]++
				if p.Seq == 3 {
					return VerdictDrop
				}
				return VerdictForward
			}}
		}
		return &stubFirmware{onWireReceive: func(p *proto.Packet, _ API) Verdict {
			if p.Kind == proto.KindBatch {
				t.Error("firmware was handed a raw frame")
			}
			received[p.Seq]++
			return VerdictForward
		}}
	})
	var discarded, recycled []uint64
	w := watchPool(r.nics[0])
	note := func() {
		for _, p := range w.released() {
			recycled = append(recycled, p.Seq)
		}
	}
	r.nics[0].SetHostDiscardHook(func(p *proto.Packet) {
		note()
		if slices.Contains(recycled, p.Seq) {
			t.Errorf("seq %d was released into the pool before the discard hook saw it", p.Seq)
		}
		discarded = append(discarded, p.Seq)
	})
	// 1 enters flight solo; 2..5 fill one frame, of which 3 is dropped.
	for s := uint64(1); s <= 5; s++ {
		r.nics[0].HostEnqueue(seqPkt(0, 1, s))
	}
	r.eng.Run(vtime.ModelInfinity)
	note()

	if len(r.toHost[1]) != 2 || r.toHost[1][1].Kind != proto.KindBatch {
		t.Fatalf("delivered %v, want one solo packet then one frame", r.toHost[1])
	}
	checkSubs(t, r.toHost[1][1], 2, 4, 5)
	for s := uint64(1); s <= 5; s++ {
		if sent[s] != 1 {
			t.Errorf("seq %d passed OnHostSend %d times, want 1", s, sent[s])
		}
		want := 1
		if s == 3 {
			want = 0
		}
		if received[s] != want {
			t.Errorf("seq %d passed OnWireReceive %d times, want %d", s, received[s], want)
		}
	}
	if !slices.Equal(discarded, []uint64{3}) {
		t.Errorf("discard hook saw %v, want [3]", discarded)
	}
	// The folded head, the dropped partner and the folded partners all die
	// on the NIC; the solo packet travels and is not recycled here.
	if !slices.Equal(recycled, []uint64{2, 3, 4, 5}) {
		t.Errorf("pool took back %v, want [2 3 4 5]", recycled)
	}
}

// TestBatchSubMessageMustBeForwarded: a frame is delivered as a unit, so a
// receive hook that consumes or drops one of its sub-messages is a bug.
func TestBatchSubMessageMustBeForwarded(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BatchMax = 4
	r := batchRig(t, cfg, func(i int) Firmware {
		return &stubFirmware{onWireReceive: func(p *proto.Packet, _ API) Verdict {
			if p.Seq == 3 {
				return VerdictConsume
			}
			return VerdictForward
		}}
	})
	for s := uint64(1); s <= 3; s++ {
		r.nics[0].HostEnqueue(seqPkt(0, 1, s))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("consuming a batched sub-message did not panic")
		}
	}()
	r.eng.Run(vtime.ModelInfinity)
}

// TestGatherBatchStopRule checks the queue edit underneath assembly:
// other-destination and NIC-originated entries are retained in order, and
// the gather stops at the first same-destination packet that must dequeue
// alone (here: one carrying a GVT piggyback).
func TestGatherBatchStopRule(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BatchMax = 8
	r := batchRig(t, cfg, func(i int) Firmware { return &stubFirmware{} })
	n := r.nics[0]
	// Build a queue by hand (no pump: txPumping pinned).
	n.txPumping = true
	n.enqueue(outEntry{pkt: seqPkt(0, 1, 1)})
	n.enqueue(outEntry{pkt: seqPkt(0, 0, 9)}) // other destination
	n.enqueue(outEntry{pkt: seqPkt(0, 1, 2)}) // gatherable
	piggy := seqPkt(0, 1, 3)
	piggy.PiggyGVTValid = true // stops the gather toward dst 1
	n.enqueue(outEntry{pkt: piggy})
	n.enqueue(outEntry{pkt: seqPkt(0, 1, 4)}) // behind the stop: retained
	tok := &proto.Packet{Kind: proto.KindGVTToken, SrcNode: 0, DstNode: 1}
	n.enqueue(outEntry{pkt: tok, fromNIC: true}) // NIC-originated: retained

	got := n.gatherBatch(1, 7)
	if len(got) != 2 || got[0].Seq != 1 || got[1].Seq != 2 {
		t.Fatalf("gathered %v", got)
	}
	var left []uint64
	for _, e := range n.sendQ.Live() {
		left = append(left, e.pkt.Seq)
	}
	want := []uint64{9, 3, 4, 0}
	if len(left) != len(want) {
		t.Fatalf("queue after gather: %v, want %v", left, want)
	}
	for i := range want {
		if left[i] != want[i] {
			t.Fatalf("queue after gather: %v, want %v", left, want)
		}
	}
}

// TestFlushHorizonHoldsThenFires: with a horizon configured and too few
// partners queued, an eligible head waits — and departs at the deadline
// even if no partner ever arrives.
func TestFlushHorizonHoldsThenFires(t *testing.T) {
	const horizon = 50 * vtime.Microsecond
	cfg := DefaultConfig()
	cfg.BatchMax = 8
	cfg.FlushHorizon = horizon
	r := batchRig(t, cfg, func(i int) Firmware { return &stubFirmware{} })
	r.nics[0].HostEnqueue(seqPkt(0, 1, 1))
	r.eng.Run(horizon / 2)
	if len(r.toHost[1]) != 0 {
		t.Fatal("held head departed before the flush horizon")
	}
	r.eng.Run(vtime.ModelInfinity)
	if len(r.toHost[1]) != 1 {
		t.Fatalf("held head never flushed: %d delivered", len(r.toHost[1]))
	}
	if r.nics[0].Stats.BatchFrames.Value() != 0 {
		t.Fatal("lone packet must not become a frame")
	}
}

// TestFlushHorizonBatchesArrivals: partners arriving within the horizon
// join the held head's frame.
func TestFlushHorizonBatchesArrivals(t *testing.T) {
	const horizon = vtime.Millisecond
	cfg := DefaultConfig()
	cfg.BatchMax = 4
	cfg.FlushHorizon = horizon
	r := batchRig(t, cfg, func(i int) Firmware { return &stubFirmware{} })
	for s := uint64(1); s <= 4; s++ {
		s := s
		r.eng.AtArg(vtime.ModelTime(s)*vtime.Microsecond, func(interface{}) {
			r.nics[0].HostEnqueue(seqPkt(0, 1, s))
		}, nil)
	}
	// Run only to half the horizon: a full batch flushes as soon as the
	// fourth arrival completes it, not at the (still armed, now stale)
	// horizon timer.
	r.eng.Run(horizon / 2)
	if got := len(r.toHost[1]); got != 1 {
		t.Fatalf("full batch did not flush before the horizon: %d delivered", got)
	}
	checkSubs(t, r.toHost[1][0], 1, 2, 3, 4)
	if got := r.nics[0].Stats.BatchFrames.Value(); got != 1 {
		t.Fatalf("BatchFrames = %d, want 1", got)
	}
	if got := r.nics[0].Stats.BatchSubs.Value(); got != 4 {
		t.Fatalf("BatchSubs = %d, want 4 (full frame)", got)
	}
	r.eng.Run(vtime.ModelInfinity) // drain the stale flush timer
	if got := len(r.toHost[1]); got != 1 {
		t.Fatalf("stale flush timer re-delivered: %d packets", got)
	}
}
