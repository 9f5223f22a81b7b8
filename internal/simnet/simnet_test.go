package simnet

import (
	"testing"

	"nicwarp/internal/des"
	"nicwarp/internal/proto"
	"nicwarp/internal/vtime"
)

func pkt(src, dst int32) *proto.Packet {
	return &proto.Packet{Kind: proto.KindEvent, SrcNode: src, DstNode: dst}
}

// attachAll attaches every port to the one engine, lane = port id.
func attachAll(f *Fabric, e *des.Engine, deliver func(port int, p *proto.Packet)) {
	for i := 0; i < f.NumPorts(); i++ {
		i := i
		f.Attach(i, e, uint32(i), func(p *proto.Packet) { deliver(i, p) })
	}
}

func TestUnicastDelivery(t *testing.T) {
	e := des.NewEngine()
	f := NewFabric(Config{}, 4)
	var got []*proto.Packet
	var at vtime.ModelTime
	attachAll(f, e, func(port int, p *proto.Packet) {
		if port != int(p.DstNode) {
			t.Errorf("packet for %d delivered to port %d", p.DstNode, port)
		}
		got = append(got, p)
		at = e.Now()
	})
	p := pkt(0, 2)
	f.Announce(0, p, 0)
	e.Run(vtime.ModelInfinity)
	if len(got) != 1 || got[0] != p {
		t.Fatalf("delivered %d packets", len(got))
	}
	// Latency = linkLatency + switchLatency + serialize + linkLatency.
	serialize := vtime.TransferTime(p.EncodedSize(), LinkBandwidth)
	want := MinTransitTime + serialize + LinkLatency
	if at != want {
		t.Fatalf("delivery at %v, want %v", at, want)
	}
}

func TestFutureDeparture(t *testing.T) {
	// An announced departure in the future delays the whole chain by the
	// same amount: the fabric decides fate now but nothing moves early.
	e := des.NewEngine()
	f := NewFabric(Config{}, 2)
	var at vtime.ModelTime
	attachAll(f, e, func(port int, p *proto.Packet) { at = e.Now() })
	p := pkt(0, 1)
	f.Announce(0, p, 700)
	e.Run(vtime.ModelInfinity)
	serialize := vtime.TransferTime(p.EncodedSize(), LinkBandwidth)
	want := 700 + MinTransitTime + serialize + LinkLatency
	if at != want {
		t.Fatalf("delivery at %v, want %v", at, want)
	}
}

func TestFIFOPerPath(t *testing.T) {
	e := des.NewEngine()
	f := NewFabric(Config{}, 2)
	var seqs []uint64
	attachAll(f, e, func(port int, p *proto.Packet) {
		if port == 1 {
			seqs = append(seqs, p.Seq)
		}
	})
	for i := 0; i < 20; i++ {
		p := pkt(0, 1)
		p.Seq = uint64(i)
		f.Announce(0, p, 0)
	}
	e.Run(vtime.ModelInfinity)
	if len(seqs) != 20 {
		t.Fatalf("delivered %d", len(seqs))
	}
	for i, s := range seqs {
		if s != uint64(i) {
			t.Fatalf("reordered: %v", seqs)
		}
	}
}

func TestOutputPortContention(t *testing.T) {
	// Two senders target the same port; deliveries must be serialized by
	// the output port, so the last delivery is later than a single
	// uncontended transfer.
	e := des.NewEngine()
	f := NewFabric(Config{}, 3)
	var times []vtime.ModelTime
	attachAll(f, e, func(port int, p *proto.Packet) { times = append(times, e.Now()) })
	f.Announce(0, pkt(0, 2), 0)
	f.Announce(1, pkt(1, 2), 0)
	e.Run(vtime.ModelInfinity)
	if len(times) != 2 {
		t.Fatalf("delivered %d", len(times))
	}
	serialize := vtime.TransferTime(pkt(0, 2).EncodedSize(), LinkBandwidth)
	gap := times[1] - times[0]
	if gap != serialize {
		t.Fatalf("second delivery gap %v, want one serialization %v", gap, serialize)
	}
}

func TestBroadcast(t *testing.T) {
	e := des.NewEngine()
	f := NewFabric(Config{}, 4)
	got := map[int]int{}
	attachAll(f, e, func(port int, p *proto.Packet) {
		got[port]++
		if int(p.DstNode) != port {
			t.Errorf("broadcast copy at port %d has DstNode %d", port, p.DstNode)
		}
	})
	b := pkt(1, -1)
	b.Kind = proto.KindGVTBroadcast
	f.Announce(1, b, 0)
	e.Run(vtime.ModelInfinity)
	if got[1] != 0 {
		t.Fatal("broadcast echoed to source")
	}
	for _, i := range []int{0, 2, 3} {
		if got[i] != 1 {
			t.Fatalf("port %d got %d copies", i, got[i])
		}
	}
}

// scriptTap replays a fixed decision list, one per OnRoute call.
type scriptTap struct {
	decisions []TapDecision
	calls     int
}

func (s *scriptTap) OnRoute(srcPort, dstPort int, pkt *proto.Packet) TapDecision {
	d := TapDecision{}
	if s.calls < len(s.decisions) {
		d = s.decisions[s.calls]
	}
	s.calls++
	return d
}

func TestTapRetransmitDelaysDeparture(t *testing.T) {
	// Drop with Redeliver re-offers the same packet after the retx delay;
	// the tap is rolled again and the delivery lands one retx later.
	e := des.NewEngine()
	f := NewFabric(Config{}, 2)
	tap := &scriptTap{decisions: []TapDecision{
		{Drop: true, Redeliver: 400},
		{},
	}}
	f.SetTap(tap)
	var at vtime.ModelTime
	n := 0
	attachAll(f, e, func(port int, p *proto.Packet) { at = e.Now(); n++ })
	p := pkt(0, 1)
	p.Seq = 1 // non-control: taps apply
	f.Announce(0, p, 0)
	e.Run(vtime.ModelInfinity)
	serialize := vtime.TransferTime(p.EncodedSize(), LinkBandwidth)
	want := 400 + MinTransitTime + serialize + LinkLatency
	if n != 1 || at != want {
		t.Fatalf("delivered %d at %v, want 1 at %v", n, at, want)
	}
	if tap.calls != 2 {
		t.Fatalf("tap rolled %d times, want 2", tap.calls)
	}
}

func TestTapDuplicateClones(t *testing.T) {
	e := des.NewEngine()
	f := NewFabric(Config{}, 2)
	tap := &scriptTap{decisions: []TapDecision{
		{Dup: true, DupDelay: 200},
		{}, // the clone's own roll
	}}
	f.SetTap(tap)
	var dups, originals int
	attachAll(f, e, func(port int, p *proto.Packet) {
		if p.WireDup {
			dups++
		} else {
			originals++
		}
	})
	p := pkt(0, 1)
	p.Seq = 1
	f.Announce(0, p, 0)
	e.Run(vtime.ModelInfinity)
	if originals != 1 || dups != 1 {
		t.Fatalf("originals=%d dups=%d, want 1/1", originals, dups)
	}
}

// TestCopiesComeFromThePortsPool: a port attached with a pool takes the
// broadcast replicas of what it sends from that pool, and hands the
// broadcast packet itself to the last port.
func TestCopiesComeFromThePortsPool(t *testing.T) {
	e := des.NewEngine()
	f := NewFabric(Config{}, 4)
	pools := make([]proto.Pool, 4)
	got := map[*proto.Packet]int{}
	for i := range pools {
		f.AttachArg(i, e, uint32(i), &pools[i], func(_ interface{}, p *proto.Packet) { got[p] = int(p.DstNode) }, nil)
	}
	pooled := map[*proto.Packet]bool{}
	for _, p := range []*proto.Packet{pools[1].Packet(), pools[1].Packet()} {
		pooled[p] = true
		pools[1].Release(p)
	}
	b := pkt(1, -1)
	b.Kind = proto.KindGVTBroadcast
	f.Announce(1, b, 0)
	e.Run(vtime.ModelInfinity)
	if len(got) != 3 || got[b] != 3 {
		t.Fatalf("broadcast reached %v, want three replicas with the packet itself at port 3", got)
	}
	for p, port := range got {
		if p != b && !pooled[p] {
			t.Errorf("the replica for port %d came from neither the pool nor the packet", port)
		}
	}
}

func TestTapTrueLoss(t *testing.T) {
	e := des.NewEngine()
	f := NewFabric(Config{}, 2)
	f.SetTap(&scriptTap{decisions: []TapDecision{{Drop: true}}})
	n := 0
	attachAll(f, e, func(port int, p *proto.Packet) { n++ })
	p := pkt(0, 1)
	p.Seq = 1
	f.Announce(0, p, 0)
	e.Run(vtime.ModelInfinity)
	if n != 0 {
		t.Fatalf("delivered %d, want 0 (lost)", n)
	}
}

func TestCrossEngineDelivery(t *testing.T) {
	// Ports on different engines of a shard group: the arrival crosses at
	// the merge barrier and lands at the same time a serial run would see.
	e0, e1 := des.NewEngine(), des.NewEngine()
	g := des.NewGroup([]*des.Engine{e0, e1}, MinTransitTime)
	f := NewFabric(Config{}, 2)
	var at vtime.ModelTime
	n := 0
	f.Attach(0, e0, 0, func(p *proto.Packet) { t.Error("port 0 got a packet") })
	f.Attach(1, e1, 1, func(p *proto.Packet) { at = e1.Now(); n++ })
	p := pkt(0, 1)
	e0.AtArg(0, func(interface{}) { f.Announce(0, p, e0.Now()) }, nil)
	g.Run(vtime.ModelInfinity)
	serialize := vtime.TransferTime(p.EncodedSize(), LinkBandwidth)
	want := MinTransitTime + serialize + LinkLatency
	if n != 1 || at != want {
		t.Fatalf("delivered %d at %v, want 1 at %v", n, at, want)
	}
}

func TestPanicsOnBadPort(t *testing.T) {
	e := des.NewEngine()
	f := NewFabric(Config{}, 2)
	attachAll(f, e, func(int, *proto.Packet) {})
	for _, c := range []func(){
		func() { f.Announce(5, pkt(0, 1), 0) },
		func() { f.Announce(0, pkt(0, 9), 0) },
		func() { f.Announce(0, nil, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			c()
		}()
	}
}

func TestUnattachedPortPanics(t *testing.T) {
	e := des.NewEngine()
	f := NewFabric(Config{}, 2)
	f.Attach(0, e, 0, func(*proto.Packet) {})
	defer func() {
		if recover() == nil {
			t.Error("expected panic for unattached receiver")
		}
	}()
	f.Announce(0, pkt(0, 1), 0)
}

// TestPortUtilizationGrows: a burst toward one port keeps that port's
// serializer busy back to back, so the burst's last packet lands one
// serialization per packet after the first one could have; the idle port's
// serializer does nothing.
func TestPortUtilizationGrows(t *testing.T) {
	e := des.NewEngine()
	f := NewFabric(Config{}, 2)
	var last vtime.ModelTime
	n := 0
	attachAll(f, e, func(port int, p *proto.Packet) { last = e.Now(); n++ })
	for i := 0; i < 50; i++ {
		f.Announce(0, pkt(0, 1), 0)
	}
	e.Run(vtime.ModelInfinity)
	serialize := vtime.TransferTime(pkt(0, 1).EncodedSize(), LinkBandwidth)
	if want := MinTransitTime + 50*serialize + LinkLatency; n != 50 || last != want {
		t.Fatalf("delivered %d, last at %v; want 50, last at %v", n, last, want)
	}
	if got := f.ports[1].out.Busy.Total(); got != 50*serialize {
		t.Fatalf("port 1 busy %v, want %v", got, 50*serialize)
	}
	if !f.ports[0].out.Idle() || f.ports[0].out.Busy.Total() != 0 {
		t.Fatal("port 0 carried no traffic")
	}
}

func TestDefaultConfigSane(t *testing.T) {
	if DefaultConfig() != (Config{}) {
		t.Fatal("the default fabric is the zero Config, the crossbar")
	}
	if LinkBandwidth != 150e6 {
		t.Fatalf("bandwidth %v, want 1.2Gb/s", LinkBandwidth)
	}
	if LinkLatency <= 0 || SwitchLatency <= 0 {
		t.Fatal("latencies must be positive")
	}
	if MinTransitTime != LinkLatency+SwitchLatency {
		t.Fatal("MinTransitTime must be link + switch latency")
	}
}
