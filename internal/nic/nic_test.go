package nic

import (
	"slices"
	"testing"

	"nicwarp/internal/des"
	"nicwarp/internal/proto"
	"nicwarp/internal/simnet"
	"nicwarp/internal/vtime"
)

// stubFirmware forwards everything by default; hooks can be overridden.
type stubFirmware struct {
	onHostSend    func(*proto.Packet, API) Verdict
	onWireReceive func(*proto.Packet, API) Verdict
	onDoorbell    func(API)
}

func (s *stubFirmware) OnHostSend(p *proto.Packet, a API) Verdict {
	if s.onHostSend != nil {
		return s.onHostSend(p, a)
	}
	return VerdictForward
}
func (s *stubFirmware) OnWireReceive(p *proto.Packet, a API) Verdict {
	if s.onWireReceive != nil {
		return s.onWireReceive(p, a)
	}
	return VerdictForward
}
func (s *stubFirmware) OnDoorbell(a API) {
	if s.onDoorbell != nil {
		s.onDoorbell(a)
	}
}

type rig struct {
	eng    *des.Engine
	fabric *simnet.Fabric
	nics   []*NIC
	toHost [][]*proto.Packet
	bells  [][]NotifyTag
}

func newRig(t *testing.T, n int, fw func(i int) Firmware) *rig {
	t.Helper()
	r := &rig{
		eng:    des.NewEngine(),
		toHost: make([][]*proto.Packet, n),
		bells:  make([][]NotifyTag, n),
	}
	r.fabric = simnet.NewFabric(simnet.DefaultConfig(), n)
	for i := 0; i < n; i++ {
		i := i
		nc := New(r.eng, i, DefaultConfig(), r.fabric, fw(i))
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

func evPkt(src, dst int32) *proto.Packet {
	return &proto.Packet{Kind: proto.KindEvent, SrcNode: src, DstNode: dst}
}

func TestEndToEndForwarding(t *testing.T) {
	r := newRig(t, 2, func(int) Firmware { return &stubFirmware{} })
	p := evPkt(0, 1)
	r.nics[0].HostEnqueue(p)
	r.eng.Run(vtime.ModelInfinity)
	if len(r.toHost[1]) != 1 || r.toHost[1][0] != p {
		t.Fatalf("delivery: %v", r.toHost[1])
	}
	if r.nics[0].Stats.HostTx.Value() != 1 {
		t.Fatalf("HostTx = %d", r.nics[0].Stats.HostTx.Value())
	}
	if r.nics[1].Stats.RxDelivered.Value() != 1 {
		t.Fatalf("RxDelivered = %d", r.nics[1].Stats.RxDelivered.Value())
	}
	if !r.nics[0].Idle() || !r.nics[1].Idle() {
		t.Fatal("NICs should be idle after drain")
	}
}

func TestSendVerdictDrop(t *testing.T) {
	r := newRig(t, 2, func(i int) Firmware {
		if i == 0 {
			return &stubFirmware{onHostSend: func(p *proto.Packet, a API) Verdict {
				return VerdictDrop
			}}
		}
		return &stubFirmware{}
	})
	r.nics[0].HostEnqueue(evPkt(0, 1))
	r.eng.Run(vtime.ModelInfinity)
	if len(r.toHost[1]) != 0 {
		t.Fatal("dropped packet was delivered")
	}
	if r.nics[0].Stats.HostTx.Value() != 0 {
		t.Fatal("dropped packet counted as transmitted")
	}
}

func TestReceiveVerdictConsume(t *testing.T) {
	r := newRig(t, 2, func(i int) Firmware {
		if i == 1 {
			return &stubFirmware{onWireReceive: func(p *proto.Packet, a API) Verdict {
				return VerdictConsume
			}}
		}
		return &stubFirmware{}
	})
	r.nics[0].HostEnqueue(evPkt(0, 1))
	r.eng.Run(vtime.ModelInfinity)
	if len(r.toHost[1]) != 0 {
		t.Fatal("consumed packet reached host")
	}
	if r.nics[1].Stats.RxConsumed.Value() != 1 {
		t.Fatalf("RxConsumed = %d", r.nics[1].Stats.RxConsumed.Value())
	}
}

// TestConsumedPacketBelongsToFirmware: VerdictConsume hands the packet to
// the firmware from the moment the hook returns, so a hook may rewrite it
// on the spot (the GVT firmware refills consumed tokens). What the NIC does
// with the packet's receive-buffer credit is decided by what arrived, not
// by what the firmware left behind: a gated original returns exactly one
// credit to its real sender, a wire duplicate none.
func TestConsumedPacketBelongsToFirmware(t *testing.T) {
	for _, wireDup := range []bool{false, true} {
		r := newRig(t, 3, func(i int) Firmware {
			if i != 2 {
				return &stubFirmware{}
			}
			return &stubFirmware{onWireReceive: func(p *proto.Packet, a API) Verdict {
				// A different kind (ungated), a different sender, not a dup.
				*p = proto.Packet{Kind: proto.KindGVTToken, SrcNode: 1, DstNode: 0}
				return VerdictConsume
			}}
		})
		open0, open1 := r.nics[0].txCredit[2], r.nics[1].txCredit[2]
		if wireDup {
			// The fabric injects duplicates past the sender's window: no
			// credit was taken for one.
			dup := evPkt(0, 2)
			dup.WireDup = true
			r.fabric.Announce(0, dup, 0)
		} else {
			r.nics[0].HostEnqueue(evPkt(0, 2))
		}
		r.eng.Run(vtime.ModelInfinity)
		if r.nics[2].Stats.RxConsumed.Value() != 1 || r.nics[2].rxPkt != nil {
			t.Fatalf("wireDup=%v: consumed %d, NIC still holds %v", wireDup, r.nics[2].Stats.RxConsumed.Value(), r.nics[2].rxPkt)
		}
		if got0, got1 := r.nics[0].txCredit[2], r.nics[1].txCredit[2]; got0 != open0 || got1 != open1 {
			t.Fatalf("wireDup=%v: windows toward node 2 ended at %d (node 0) and %d (node 1), opened at %d and %d",
				wireDup, got0, got1, open0, open1)
		}
	}
}

func TestFirmwareChargeSlowsNIC(t *testing.T) {
	// The same traffic with an expensive firmware must take longer: this is
	// the mechanism behind the paper's NIC-GVT overhead at large periods.
	run := func(extra int64) vtime.ModelTime {
		r := newRig(t, 2, func(i int) Firmware {
			return &stubFirmware{onHostSend: func(p *proto.Packet, a API) Verdict {
				a.Charge(extra)
				return VerdictForward
			}}
		})
		for k := 0; k < 50; k++ {
			r.nics[0].HostEnqueue(evPkt(0, 1))
		}
		return r.eng.Run(vtime.ModelInfinity)
	}
	fast := run(0)
	slow := run(10000)
	if slow <= fast {
		t.Fatalf("expensive firmware not slower: %v vs %v", slow, fast)
	}
}

func TestNegativeChargePanics(t *testing.T) {
	r := newRig(t, 2, func(int) Firmware {
		return &stubFirmware{onHostSend: func(p *proto.Packet, a API) Verdict {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			a.Charge(-1)
			return VerdictForward
		}}
	})
	r.nics[0].HostEnqueue(evPkt(0, 1))
	r.eng.Run(vtime.ModelInfinity)
}

func TestInjectBypassesOnHostSend(t *testing.T) {
	hookRuns := 0
	r := newRig(t, 2, func(i int) Firmware {
		if i == 0 {
			return &stubFirmware{
				onHostSend: func(p *proto.Packet, a API) Verdict {
					hookRuns++
					// Inject a NIC-generated token alongside the host packet.
					tok := &proto.Packet{Kind: proto.KindGVTToken, SrcNode: 0, DstNode: 1}
					a.Inject(tok)
					return VerdictForward
				},
			}
		}
		return &stubFirmware{}
	})
	r.nics[0].HostEnqueue(evPkt(0, 1))
	r.eng.Run(vtime.ModelInfinity)
	if hookRuns != 1 {
		t.Fatalf("OnHostSend ran %d times; injected packet must bypass it", hookRuns)
	}
	if r.nics[0].Stats.NICTx.Value() != 1 || r.nics[0].Stats.HostTx.Value() != 1 {
		t.Fatalf("NICTx=%d HostTx=%d", r.nics[0].Stats.NICTx.Value(), r.nics[0].Stats.HostTx.Value())
	}
	if len(r.toHost[1]) != 2 {
		t.Fatalf("host 1 received %d packets, want 2", len(r.toHost[1]))
	}
}

func TestRemoveFromSendQueue(t *testing.T) {
	// Queue several packets behind a slow head, then cancel some from the
	// receive path — the early-cancellation mechanic.
	r := newRig(t, 2, func(i int) Firmware {
		if i == 0 {
			return &stubFirmware{onWireReceive: func(p *proto.Packet, a API) Verdict {
				if p.IsAnti() {
					removed := a.RemoveFromSendQueue(func(q *proto.Packet) bool {
						return q.SendTS > p.RecvTS
					})
					for range removed {
						a.Stats().DroppedInPlace.Inc()
					}
					return VerdictForward
				}
				return VerdictForward
			}}
		}
		return &stubFirmware{}
	})
	// Enqueue packets with ascending timestamps; the head enters flight
	// immediately, the rest are cancellable.
	for k := 0; k < 5; k++ {
		p := evPkt(0, 1)
		p.SendTS = vtime.VTime(100 + k*10) // 100,110,120,130,140
		p.EventID = uint64(k)
		r.nics[0].HostEnqueue(p)
	}
	// An anti-message with receive timestamp 115 arrives from node 1.
	anti := &proto.Packet{Kind: proto.KindAnti, SrcNode: 1, DstNode: 0, RecvTS: 115}
	r.nics[1].HostEnqueue(anti)
	r.eng.Run(vtime.ModelInfinity)
	dropped := r.nics[0].Stats.DroppedInPlace.Value()
	delivered := len(r.toHost[1])
	if dropped == 0 {
		t.Fatal("no packets cancelled in place")
	}
	if int64(delivered)+dropped != 5 {
		t.Fatalf("delivered %d + dropped %d != 5", delivered, dropped)
	}
	// Every delivered event packet must have SendTS <= 115 unless it was
	// already in flight when the anti arrived (the head).
	late := 0
	for _, p := range r.toHost[1] {
		if p.SendTS > 115 {
			late++
		}
	}
	if late > 2 {
		t.Fatalf("%d late packets escaped cancellation", late)
	}
}

func TestCreditWindowBackpressure(t *testing.T) {
	// A destination whose host never consumes pins the sender's window:
	// exactly RxQueueCap packets travel, the rest back up in the sender's
	// send queue. Consuming at the host then returns credits and drains
	// the backlog.
	cfg := DefaultConfig()
	cfg.RxQueueCap = 3
	e := des.NewEngine()
	f := simnet.NewFabric(simnet.DefaultConfig(), 2)
	n0 := New(e, 0, cfg, f, &stubFirmware{})
	n1 := New(e, 1, cfg, f, &stubFirmware{})
	var parked []func()
	n0.Wire(func(p *proto.Packet, done func()) { done() }, func(NotifyTag) {})
	n1.Wire(func(p *proto.Packet, done func()) { parked = append(parked, done) }, func(NotifyTag) {})
	peers := []*NIC{n0, n1}
	n0.WirePeers(func(i int) *NIC { return peers[i] })
	n1.WirePeers(func(i int) *NIC { return peers[i] })

	for k := 0; k < 8; k++ {
		n0.HostEnqueue(evPkt(0, 1))
	}
	e.Run(vtime.ModelInfinity)
	if len(parked) != 3 {
		t.Fatalf("delivered %d with window 3", len(parked))
	}
	if n0.txCredit[1] != 0 || !n0.txStalled {
		t.Fatalf("sender not stalled on closed window: credit=%d stalled=%v", n0.txCredit[1], n0.txStalled)
	}
	// The host consumes everything delivered so far; credits return and the
	// pump resumes until all 8 packets arrive.
	for len(parked) > 0 {
		batch := parked
		parked = nil
		for _, done := range batch {
			done()
		}
		e.Run(vtime.ModelInfinity)
	}
	if got := n1.Stats.RxDelivered.Value(); got != 8 {
		t.Fatalf("RxDelivered = %d, want 8", got)
	}
	if n0.txCredit[1] != 3 {
		t.Fatalf("window not fully restored: %d", n0.txCredit[1])
	}
}

func TestFaultHoldWithholdsCredits(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RxQueueCap = 4
	e := des.NewEngine()
	f := simnet.NewFabric(simnet.DefaultConfig(), 2)
	n0 := New(e, 0, cfg, f, &stubFirmware{})
	n1 := New(e, 1, cfg, f, &stubFirmware{})
	n0.Wire(func(p *proto.Packet, done func()) { done() }, func(NotifyTag) {})
	n1.Wire(func(p *proto.Packet, done func()) { done() }, func(NotifyTag) {})
	peers := []*NIC{n0, n1}
	n0.WirePeers(func(i int) *NIC { return peers[i] })
	n1.WirePeers(func(i int) *NIC { return peers[i] })

	if held := n1.FaultHoldRx(2); held != 2 {
		t.Fatalf("held %d, want 2", held)
	}
	for k := 0; k < 4; k++ {
		n0.HostEnqueue(evPkt(0, 1))
	}
	e.Run(vtime.ModelInfinity)
	// All four packets travel (the sender's window was open), but two
	// credits are withheld by the hold: the window stays two short.
	if n0.txCredit[1] != 2 {
		t.Fatalf("window = %d with 2 slots held, want 2", n0.txCredit[1])
	}
	n1.FaultReleaseRx(2)
	e.Run(vtime.ModelInfinity)
	if n0.txCredit[1] != 4 {
		t.Fatalf("window = %d after release, want 4", n0.txCredit[1])
	}
}

func TestNotifyHostDoorbell(t *testing.T) {
	r := newRig(t, 2, func(i int) Firmware {
		if i == 1 {
			return &stubFirmware{onWireReceive: func(p *proto.Packet, a API) Verdict {
				a.NotifyHost(NotifyGVTControl)
				return VerdictConsume
			}}
		}
		return &stubFirmware{}
	})
	r.nics[0].HostEnqueue(evPkt(0, 1))
	r.eng.Run(vtime.ModelInfinity)
	if len(r.bells[1]) != 1 || r.bells[1][0] != NotifyGVTControl {
		t.Fatalf("bells = %v", r.bells[1])
	}
}

func TestDoorbellInvokesFirmware(t *testing.T) {
	rang := false
	r := newRig(t, 1, func(int) Firmware {
		return &stubFirmware{onDoorbell: func(a API) {
			rang = true
			a.Charge(100)
		}}
	})
	r.nics[0].Doorbell()
	r.eng.Run(vtime.ModelInfinity)
	if !rang {
		t.Fatal("doorbell hook did not run")
	}
	if r.nics[0].Stats.FirmwareCycles.Value() != 100 {
		t.Fatalf("firmware cycles = %d", r.nics[0].Stats.FirmwareCycles.Value())
	}
}

func TestSendQueueDepthHighWater(t *testing.T) {
	r := newRig(t, 2, func(int) Firmware { return &stubFirmware{} })
	highWater := 0
	for k := 0; k < 10; k++ {
		r.nics[0].HostEnqueue(evPkt(0, 1))
		highWater = max(highWater, r.nics[0].sendQ.Len())
	}
	if highWater < 5 {
		t.Fatalf("high-water = %d, want a real backlog", highWater)
	}
	r.eng.Run(vtime.ModelInfinity)
	if len(r.toHost[1]) != 10 || r.nics[0].sendQ.Len() != 0 {
		t.Fatalf("delivered %d, %d left queued", len(r.toHost[1]), r.nics[0].sendQ.Len())
	}
}

func TestNilFirmwarePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e := des.NewEngine()
	f := simnet.NewFabric(simnet.DefaultConfig(), 1)
	New(e, 0, DefaultConfig(), f, nil)
}

func TestVerdictString(t *testing.T) {
	if VerdictForward.String() != "forward" || VerdictDrop.String() != "drop" ||
		VerdictConsume.String() != "consume" || Verdict(7).String() == "" {
		t.Fatal("verdict strings")
	}
}

func TestScratchClearedAfterHooks(t *testing.T) {
	// Regression for a latent pooled-pointer retention surfaced by the
	// poolown analyzer: the SendQueue/RemoveFromSendQueue scratch slices
	// kept packet pointers in their backing arrays between firmware hooks,
	// pinning packets the pool had long since recycled.
	//
	// The hook takes the send-queue view, shrinks the queue, and takes the
	// view again: the second view is shorter than the first, so clearing
	// only what the last view covers would leave the first view's tail
	// behind. clearScratch clears the high-water prefix instead of the whole
	// backing array; the assertions below still walk the whole array.
	var views [2]int
	r := newRig(t, 2, func(i int) Firmware {
		if i == 0 {
			return &stubFirmware{onWireReceive: func(p *proto.Packet, a API) Verdict {
				if p.IsAnti() {
					views[0] = len(a.SendQueue())
					a.RemoveFromSendQueue(func(q *proto.Packet) bool {
						return q.SendTS > p.RecvTS
					})
					views[1] = len(a.SendQueue())
				}
				return VerdictForward
			}}
		}
		return &stubFirmware{}
	})
	for k := 0; k < 5; k++ {
		p := evPkt(0, 1)
		p.SendTS = vtime.VTime(100 + k*10)
		p.EventID = uint64(k)
		r.nics[0].HostEnqueue(p)
	}
	anti := &proto.Packet{Kind: proto.KindAnti, SrcNode: 1, DstNode: 0, RecvTS: 125}
	r.nics[1].HostEnqueue(anti)
	r.eng.Run(vtime.ModelInfinity)
	if views[1] == 0 || views[1] >= views[0] {
		t.Fatalf("send-queue views %v: the hook must see a non-empty queue shrink", views)
	}
	for _, n := range r.nics {
		for name, s := range map[string]*hookScratch{"sq": &n.sqScratch, "rm": &n.rmScratch, "gb": &n.gbScratch} {
			if len(s.view) != 0 || s.high != 0 {
				t.Errorf("node %d: %sScratch not reset after hooks (len %d, high %d)", n.node, name, len(s.view), s.high)
			}
			for i, p := range s.view[:cap(s.view)] {
				if p != nil {
					t.Errorf("node %d: %sScratch[%d] retains %p after hooks", n.node, name, i, p)
				}
			}
		}
	}
}

// TestDroppedHostPacketsAreRecycled: a host packet the NIC discards instead
// of sending never reaches a destination host, so nothing downstream would
// return it to the sender's pool. The NIC hands event-like ones to the
// recycler itself — after the discard observer has read the packet, and for
// the packets of a RemoveFromSendQueue view only once that view is dead
// (the hook took its next view, or returned). Packets that travel, packets
// the firmware consumed and control packets are not the NIC's to recycle.
func TestDroppedHostPacketsAreRecycled(t *testing.T) {
	const dropID, consumeID = 99, 98
	var events []string // "discard <id>" / "recycle <id>", in call order
	recycled := map[*proto.Packet]int{}
	r := newRig(t, 2, func(i int) Firmware {
		if i != 0 {
			return &stubFirmware{}
		}
		return &stubFirmware{
			onHostSend: func(p *proto.Packet, a API) Verdict {
				switch {
				case p.EventID == dropID || p.Kind == proto.KindGVTControl:
					return VerdictDrop
				case p.EventID == consumeID:
					return VerdictConsume
				}
				return VerdictForward
			},
			onWireReceive: func(p *proto.Packet, a API) Verdict {
				if !p.IsAnti() {
					return VerdictForward
				}
				first := a.RemoveFromSendQueue(func(q *proto.Packet) bool { return q.EventID == 1 })
				if len(first) != 1 || recycled[first[0]] != 0 {
					t.Errorf("first view: %d packets, recycled while live: %v", len(first), recycled)
				}
				gone := first[0]
				second := a.RemoveFromSendQueue(func(q *proto.Packet) bool { return q.EventID == 2 })
				if recycled[gone] != 1 {
					t.Error("the first view's packet must be recycled once the second view replaces it")
				}
				if len(second) != 1 || recycled[second[0]] != 0 {
					t.Errorf("second view: %d packets, recycled while live: %v", len(second), recycled)
				}
				return VerdictForward
			},
		}
	})
	name := func(p *proto.Packet) string {
		if p.Kind == proto.KindGVTControl {
			return "control"
		}
		return string(rune('0' + p.EventID%10))
	}
	r.nics[0].SetHostDiscardHook(func(p *proto.Packet) { events = append(events, "discard "+name(p)) })
	r.nics[0].SetPacketRecycler(func(p *proto.Packet) {
		events = append(events, "recycle "+name(p))
		recycled[p]++
	})
	// Queue: a forwarded head, then the drop, the consume and the control
	// drop, then the two the scan removes.
	ids := []uint64{0, dropID, consumeID, 0, 1, 2}
	var pkts []*proto.Packet
	for i, id := range ids {
		p := evPkt(0, 1)
		p.EventID = id
		if i == 3 {
			p = &proto.Packet{Kind: proto.KindGVTControl, SrcNode: 0, DstNode: 1}
		}
		pkts = append(pkts, p)
		r.nics[0].HostEnqueue(p)
	}
	r.nics[1].HostEnqueue(&proto.Packet{Kind: proto.KindAnti, SrcNode: 1, DstNode: 0})
	r.eng.Run(vtime.ModelInfinity)

	want := []string{
		"discard 9", "recycle 9", // dropped head: observer first, then the pool
		"discard 8",       // consumed: the firmware's now
		"discard control", // dropped, but the pool holds event packets only
		"discard 1", "recycle 1", "discard 2", "recycle 2",
	}
	if len(recycled) != 3 {
		t.Fatalf("recycled %d distinct packets, want 3; events %v", len(recycled), events)
	}
	for p, n := range recycled {
		if n != 1 {
			t.Fatalf("packet %v recycled %d times", p, n)
		}
	}
	// The drop and the scan race in model time, so compare per packet
	// rather than globally: every recycle directly follows nothing but its
	// own discard.
	for _, id := range []string{"9", "1", "2"} {
		d, rc := slices.Index(events, "discard "+id), slices.Index(events, "recycle "+id)
		if d < 0 || rc < d {
			t.Fatalf("packet %s: discard at %d, recycle at %d in %v", id, d, rc, events)
		}
	}
	slices.Sort(events)
	slices.Sort(want)
	if !slices.Equal(events, want) {
		t.Fatalf("events %v, want %v", events, want)
	}
	if len(r.toHost[1]) != 1 || r.toHost[1][0] != pkts[0] {
		t.Fatalf("only the head should travel, got %v", r.toHost[1])
	}
}
