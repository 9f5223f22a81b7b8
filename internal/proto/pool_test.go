package proto

import (
	"reflect"
	"testing"
)

// TestPoolFrameKeepsCapacity: a released frame comes back from the next
// Frame call zero in every field, its Subs empty and zeroed but with all
// the capacity it grew to, whatever size that call asks for.
func TestPoolFrameKeepsCapacity(t *testing.T) {
	var p Pool
	f := p.Frame(4)
	if len(f.Subs) != 0 || cap(f.Subs) != 4 {
		t.Fatalf("fresh frame has %d subs of capacity %d, want 0 of 4", len(f.Subs), cap(f.Subs))
	}
	*f = Packet{Kind: KindBatch, Seq: 7, SrcNode: 1, DstNode: 2, Credits: 3, WireDup: true, PiggyAntiEpoch: 9, Subs: f.Subs}
	for i := uint64(0); i < 6; i++ {
		f.AppendSub(&Packet{Kind: KindEvent, Seq: 7 + i, SrcObj: 1, DstObj: 2, EventID: i + 1, Payload: 5})
	}
	grown := cap(f.Subs)
	p.ReleaseFrame(f)

	g := p.Frame(1)
	if g != f {
		t.Fatal("the released frame was not the next one handed out")
	}
	if len(g.Subs) != 0 || cap(g.Subs) != grown {
		t.Fatalf("reused frame has %d subs of capacity %d, want 0 of %d", len(g.Subs), cap(g.Subs), grown)
	}
	for i, s := range g.Subs[:cap(g.Subs)] {
		if s != (SubMsg{}) {
			t.Fatalf("reused frame's sub slot %d still holds %+v", i, s)
		}
	}
	header := *g
	header.Subs = nil
	if !reflect.DeepEqual(header, Packet{}) {
		t.Fatalf("reused frame header %+v, want every field zero", header)
	}
}

// TestPoolIsLIFO: packets and frames come back newest first, from two
// separate lists — a released packet never comes back as a frame.
func TestPoolIsLIFO(t *testing.T) {
	var p Pool
	a, b, c := p.Packet(), p.Packet(), p.Packet()
	if a == b || b == c || a == c {
		t.Fatal("the pool handed out one packet twice")
	}
	p.Release(a)
	p.Release(b)
	p.Release(c)
	if f := p.Frame(2); f == a || f == b || f == c {
		t.Fatal("a released packet came back as a frame")
	}
	for i, want := range []*Packet{c, b, a} {
		if got := p.Packet(); got != want {
			t.Fatalf("take %d returned %p, want %p (last released first)", i, got, want)
		}
	}
	f1, f2 := p.Frame(2), p.Frame(2)
	p.ReleaseFrame(f1)
	p.ReleaseFrame(f2)
	if p.Frame(2) != f2 || p.Frame(2) != f1 {
		t.Fatal("frames did not come back last released first")
	}
}

// TestPoolSteadyStateDoesNotAllocate: once the pool holds the working set,
// taking and releasing packets and frames allocates nothing.
func TestPoolSteadyStateDoesNotAllocate(t *testing.T) {
	var p Pool
	sub := &Packet{Kind: KindEvent, Seq: 1}
	cycle := func() {
		pkts := [4]*Packet{p.Packet(), p.Packet(), p.Packet(), p.Packet()}
		f := p.Frame(4)
		f.Seq = 1
		for range 4 {
			f.AppendSub(sub)
		}
		p.ReleaseFrame(f)
		for _, q := range pkts {
			p.Release(q)
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("a steady-state take/release cycle allocates %.1f times, want 0", allocs)
	}
}

// TestPoolClone: a pool's copy of a packet comes off its free list, a batch
// frame's off its frames with the sub-messages copied into the frame's own
// array, and a nil pool copies on the heap; every copy equals the original
// and shares nothing with it.
func TestPoolClone(t *testing.T) {
	var p Pool
	pkt := samplePacket()
	free := p.Packet()
	p.Release(free)
	if c := p.Clone(pkt); c != free || !reflect.DeepEqual(c, pkt) {
		t.Fatalf("pool clone %p %+v, want the pooled packet %p holding %+v", c, c, free, pkt)
	}
	frame := sampleBatch()
	spare := p.Frame(1)
	p.ReleaseFrame(spare)
	c := p.Clone(frame)
	if c != spare || !reflect.DeepEqual(c, frame) {
		t.Fatalf("pool clone of a frame %p %+v, want the pooled frame %p holding %+v", c, c, spare, frame)
	}
	if c.Subs[0].EventID++; frame.Subs[0].EventID == c.Subs[0].EventID {
		t.Fatal("a frame's clone shares its sub-messages")
	}
	var none *Pool
	if h := none.Clone(frame); h == frame || !reflect.DeepEqual(h, frame) || &h.Subs[0] == &frame.Subs[0] {
		t.Fatal("a nil pool's clone is not a deep heap copy")
	}
}
