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

// poolWatch reports which packets a NIC has released into its packet pool.
// A standalone NIC only ever releases into that list, which is a LIFO, so
// popping back to the newest packet already reported and pushing the rest
// again leaves the pool exactly as it was.
type poolWatch struct {
	pool *proto.Pool
	top  *proto.Packet // the newest packet already reported
}

// watchPool seeds n's pool with a sentinel packet, so that a read never
// finds the pool empty (an empty pool would refill itself with a slab).
func watchPool(n *NIC) *poolWatch {
	w := &poolWatch{pool: n.pool, top: &proto.Packet{}}
	n.pool.Release(w.top)
	return w
}

// released returns the packets released since the last call, oldest first.
func (w *poolWatch) released() []*proto.Packet {
	var out []*proto.Packet
	for p := w.pool.Packet(); p != w.top; p = w.pool.Packet() {
		if len(out) > 1000 {
			panic("poolWatch: the newest reported packet left the pool")
		}
		out = append(out, p)
	}
	w.pool.Release(w.top)
	slices.Reverse(out)
	for _, p := range out {
		w.pool.Release(p)
	}
	if len(out) > 0 {
		w.top = out[len(out)-1]
	}
	return out
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

// TestReceiveVerdictConsume: a packet consumed on receive stops at the NIC
// and goes back to the NIC's packet pool when the hook returns.
func TestReceiveVerdictConsume(t *testing.T) {
	var w *poolWatch
	r := newRig(t, 2, func(i int) Firmware {
		if i == 1 {
			return &stubFirmware{onWireReceive: func(p *proto.Packet, a API) Verdict {
				if got := w.released(); len(got) != 0 {
					t.Errorf("%d packets released before the hook returned", len(got))
				}
				return VerdictConsume
			}}
		}
		return &stubFirmware{}
	})
	w = watchPool(r.nics[1])
	p := evPkt(0, 1)
	r.nics[0].HostEnqueue(p)
	r.eng.Run(vtime.ModelInfinity)
	if len(r.toHost[1]) != 0 {
		t.Fatal("consumed packet reached host")
	}
	if r.nics[1].Stats.RxConsumed.Value() != 1 {
		t.Fatalf("RxConsumed = %d", r.nics[1].Stats.RxConsumed.Value())
	}
	if got := w.released(); len(got) != 1 || got[0] != p {
		t.Fatalf("pool took back %v, want the consumed packet", got)
	}
}

// TestConsumedPacketBelongsToFirmware: a packet the receive hook consumes
// is the firmware's until the hook returns, so the hook may rewrite it on
// the spot. What the NIC does with the packet's receive-buffer credit is
// decided by what arrived, not by what the firmware left behind: a gated
// original returns exactly one credit to its real sender, a wire duplicate
// none.
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

// TestRemoveFromSendQueue: the walk offers pred the queued host packets in
// queue order and never a NIC-injected one. A packet pred takes is shown to
// the discard observer and then recycled, before pred sees the next packet
// and never while pred holds it; what pred declines stays queued, in order.
func TestRemoveFromSendQueue(t *testing.T) {
	r := newRig(t, 2, func(int) Firmware { return &stubFirmware{} })
	n := r.nics[0]
	n.txPumping = true // build the queue by hand: no pump
	for id := uint64(1); id <= 5; id++ {
		p := evPkt(0, 1)
		p.EventID = id
		n.enqueue(outEntry{pkt: p})
		if id == 2 {
			tok := &proto.Packet{Kind: proto.KindGVTToken, SrcNode: 0, DstNode: 1, EventID: 9}
			n.enqueue(outEntry{pkt: tok, fromNIC: true})
		}
	}
	w := watchPool(n)
	var events []string
	note := func(what string, p *proto.Packet) {
		for _, q := range w.released() {
			events = append(events, "recycle "+string(rune('0'+q.EventID)))
		}
		if p != nil {
			events = append(events, what+" "+string(rune('0'+p.EventID)))
		}
	}
	n.SetHostDiscardHook(func(p *proto.Packet) { note("discard", p) })
	taken := apiImpl{n}.RemoveFromSendQueue(func(p *proto.Packet) bool {
		note("offer", p)
		return p.EventID%2 == 0
	})
	note("", nil)

	want := []string{
		"offer 1",
		"offer 2", "discard 2", "recycle 2",
		"offer 3",
		"offer 4", "discard 4", "recycle 4",
		"offer 5",
	}
	if taken != 2 || !slices.Equal(events, want) {
		t.Fatalf("took %d, events %v, want 2 and %v", taken, events, want)
	}
	var left []uint64
	for _, e := range n.sendQ.Live() {
		left = append(left, e.pkt.EventID)
	}
	if want := []uint64{1, 9, 3, 5}; !slices.Equal(left, want) {
		t.Fatalf("queue after the walk %v, want %v", left, want)
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

// TestScratchClearedAfterHooks: the array batch assembly gathers partners
// into holds no packet pointer once the pump returns. The partners go back
// to a packet pool as soon as the frame has copied them; a pointer lingering
// there would pin a recycled packet, and resurface it to any code that read
// the array's stale tail.
func TestScratchClearedAfterHooks(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BatchMax = 8
	r := batchRig(t, cfg, func(int) Firmware { return &stubFirmware{} })
	for s := uint64(1); s <= 6; s++ {
		r.nics[0].HostEnqueue(seqPkt(0, 1, s))
	}
	r.eng.Run(vtime.ModelInfinity)
	if r.nics[0].Stats.BatchFrames.Value() == 0 {
		t.Fatal("no frame assembled")
	}
	for _, n := range r.nics {
		if len(n.batch) != 0 {
			t.Errorf("node %d: %d batch partners left after the pump", n.node, len(n.batch))
		}
		for i, p := range n.batch[:cap(n.batch)] {
			if p != nil {
				t.Errorf("node %d: batch[%d] retains %p after the pump", n.node, i, p)
			}
		}
	}
	if cap(r.nics[0].batch) == 0 {
		t.Fatal("node 0 gathered into no array")
	}
}

// TestDroppedHostPacketsAreRecycled: a host packet the NIC discards instead
// of sending never reaches a destination host, so nothing downstream would
// return it to a pool. The NIC releases event-like ones into its packet
// pool itself, after the discard observer has read the packet. Packets
// that travel, packets the firmware consumed and control packets are not
// the NIC's to recycle.
func TestDroppedHostPacketsAreRecycled(t *testing.T) {
	const dropID, consumeID = 99, 98
	var events []string // "discard <id>" / "recycle <id>", in call order
	recycled := map[*proto.Packet]int{}
	// note appends a "recycle" event for each packet released into the
	// pool since the last note; the discard hook calls it first, so a
	// release lands in events no later than the next discard.
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
				if p.IsAnti() {
					a.RemoveFromSendQueue(func(q *proto.Packet) bool { return q.EventID == 1 || q.EventID == 2 })
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
	w := watchPool(r.nics[0])
	note := func() {
		for _, p := range w.released() {
			events = append(events, "recycle "+name(p))
			recycled[p]++
		}
	}
	r.nics[0].SetHostDiscardHook(func(p *proto.Packet) {
		note()
		events = append(events, "discard "+name(p))
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
	note()

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
