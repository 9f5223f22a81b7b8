package gvt

import (
	"testing"

	"nicwarp/internal/des"
	"nicwarp/internal/nic"
	"nicwarp/internal/proto"
	"nicwarp/internal/vtime"
)

// ring is a synchronous test harness: a set of Mattern managers whose
// control packets are delivered through a FIFO queue, with controllable LVT
// values and in-transit event messages.
type ring struct {
	t        *testing.T
	managers []*MatternManager
	hosts    []*fakeHost
	queue    []*proto.Packet
}

type fakeHost struct {
	r         *ring
	lvt       vtime.VTime
	committed []vtime.VTime
}

func (h *fakeHost) LVT() vtime.VTime         { return h.lvt }
func (h *fakeHost) OutboundMin() vtime.VTime { return vtime.Infinity }
func (h *fakeHost) CommitGVT(g vtime.VTime) {
	h.committed = append(h.committed, g)
}
func (h *fakeHost) SendControl(pkt *proto.Packet) {
	h.r.queue = append(h.r.queue, pkt)
}
func (h *fakeHost) RingDoorbell()        { h.r.t.Fatal("mattern must not use the NIC") }
func (h *fakeHost) Now() vtime.ModelTime { return 0 }
func (h *fakeHost) Schedule(d vtime.ModelTime, fn func(interface{}), arg interface{}) des.TimerRef {
	return des.TimerRef{}
}

func newRing(t *testing.T, n, period int) *ring {
	r := &ring{t: t}
	for i := 0; i < n; i++ {
		h := &fakeHost{r: r, lvt: vtime.Infinity}
		m := new(MatternManager)
		m.Init(h, i, n, new(nic.SharedWindow), period)
		r.managers = append(r.managers, m)
		r.hosts = append(r.hosts, h)
	}
	return r
}

// drain processes queued control packets until quiet.
func (r *ring) drain() {
	for guard := 0; len(r.queue) > 0; guard++ {
		if guard > 100000 {
			r.t.Fatal("control packets never quiesced")
		}
		pkt := r.queue[0]
		r.queue = r.queue[1:]
		dst := int(pkt.DstNode)
		r.managers[dst].OnControl(pkt)
	}
}

// send models an event message from LP a to LP b, optionally leaving it in
// transit (delivered later with deliver()).
func (r *ring) send(a int, sendTS vtime.VTime) *proto.Packet {
	p := &proto.Packet{Kind: proto.KindEvent, SendTS: sendTS}
	r.managers[a].OnSent(p)
	return p
}

func (r *ring) deliver(b int, p *proto.Packet) {
	r.managers[b].OnReceived(p)
}

func TestMatternIdleRingComputesInfinity(t *testing.T) {
	r := newRing(t, 4, 10)
	r.managers[0].OnIdle()
	r.drain()
	for i, h := range r.hosts {
		if len(h.committed) != 1 || !h.committed[0].IsInf() {
			t.Fatalf("LP %d committed %v, want [inf]", i, h.committed)
		}
	}
	if r.managers[0].Stats.Computations.Value() != 1 {
		t.Fatal("root did not count the computation")
	}
}

func TestMatternBoundsByLVT(t *testing.T) {
	r := newRing(t, 4, 10)
	r.hosts[2].lvt = 37
	r.managers[0].OnIdle()
	r.drain()
	for i, h := range r.hosts {
		if len(h.committed) != 1 || h.committed[0] != 37 {
			t.Fatalf("LP %d committed %v, want [37]", i, h.committed)
		}
	}
}

func TestMatternWaitsForTransitMessage(t *testing.T) {
	r := newRing(t, 3, 10)
	// LP1 sends a white message that stays in transit.
	p := r.send(1, 5)
	r.hosts[1].lvt = vtime.Infinity

	// Root initiates; the first circulation must NOT close (white in
	// transit). Process the token hop by hop: after one full drain the
	// message is still unreceived, so no commit may have happened with a
	// value above the transit message's timestamp... deliver the message
	// mid-computation and let the rounds close.
	r.managers[0].OnIdle()
	// Run a few hops, then deliver.
	for i := 0; i < 4 && len(r.queue) > 0; i++ {
		pkt := r.queue[0]
		r.queue = r.queue[1:]
		dst := int(pkt.DstNode)
		r.managers[dst].OnControl(pkt)
	}
	r.deliver(2, p)
	r.hosts[2].lvt = 9 // the delivered message produced work at t=9
	r.drain()
	for i, h := range r.hosts {
		if len(h.committed) == 0 {
			t.Fatalf("LP %d committed nothing", i)
		}
		final := h.committed[len(h.committed)-1]
		if final != 9 {
			t.Fatalf("LP %d final GVT %v, want 9", i, final)
		}
	}
	// The computation needed more than one circulation.
	if r.managers[0].Stats.Rounds.Value() < 2 {
		t.Fatalf("rounds = %d, want >= 2", r.managers[0].Stats.Rounds.Value())
	}
}

func TestMatternRedMinBoundsGVT(t *testing.T) {
	r := newRing(t, 3, 10)
	// LP1 has pending work at t=12; physical invariant: an LP only sends
	// at or above its reported LVT.
	r.hosts[1].lvt = 12
	r.managers[0].OnIdle()
	// Pop the round-0 token to LP1 and process it; now LP1 is red.
	pkt := r.queue[0]
	r.queue = r.queue[1:]
	r.managers[1].OnControl(pkt)
	// LP1 sends a red message at ts 12 after its token visit, then goes
	// idle; GVT must not exceed the red message in transit.
	p := r.send(1, 12)
	r.hosts[1].lvt = vtime.Infinity
	r.drain()
	final := r.hosts[0].committed[len(r.hosts[0].committed)-1]
	if final > 12 {
		t.Fatalf("GVT %v exceeds red send ts 12", final)
	}
	// Deliver so later computations can pass it.
	r.deliver(2, p)
	r.managers[0].OnIdle()
	r.drain()
	final = r.hosts[0].committed[len(r.hosts[0].committed)-1]
	if !final.IsInf() {
		t.Fatalf("GVT %v after delivery, want inf", final)
	}
}

func TestMatternPipelinedWaves(t *testing.T) {
	r := newRing(t, 4, 1)
	// Three initiations before any token processing: waves pipeline.
	r.managers[0].sinceGVT = 1
	r.managers[0].OnProcessed()
	r.managers[0].sinceGVT = 1
	r.managers[0].OnProcessed()
	r.managers[0].sinceGVT = 1
	r.managers[0].OnProcessed()
	if len(r.managers[0].ledger.waves) != 3 {
		t.Fatalf("active waves = %d, want 3", len(r.managers[0].ledger.waves))
	}
	r.drain()
	if got := r.managers[0].Stats.Computations.Value(); got != 3 {
		t.Fatalf("computations = %d, want 3", got)
	}
	if len(r.managers[0].ledger.waves) != 0 {
		t.Fatal("waves not retired after completion")
	}
	// GVT commits are monotone.
	prev := vtime.VTime(-1)
	for _, g := range r.hosts[1].committed {
		if g < prev {
			t.Fatalf("GVT went backwards: %v after %v", g, prev)
		}
		prev = g
	}
}

func TestMatternMaxWavesDefersInitiation(t *testing.T) {
	r := newRing(t, 2, 1)
	r.managers[0].maxWaves = 2
	for i := 0; i < 5; i++ {
		r.managers[0].sinceGVT = 1
		r.managers[0].OnProcessed()
	}
	if len(r.managers[0].ledger.waves) > 2 {
		t.Fatalf("cap violated: %d waves", len(r.managers[0].ledger.waves))
	}
	r.drain()
}

func TestMatternIdleStopsAtInfinity(t *testing.T) {
	r := newRing(t, 2, 10)
	r.managers[0].OnIdle()
	r.drain()
	n := r.managers[0].Stats.Computations.Value()
	// Once GVT is infinite, further idle notifications are ignored.
	r.managers[0].OnIdle()
	r.drain()
	if r.managers[0].Stats.Computations.Value() != n {
		t.Fatal("idle re-initiated after GVT reached infinity")
	}
}

func TestMatternSingleLP(t *testing.T) {
	r := newRing(t, 1, 10)
	r.hosts[0].lvt = 55
	r.managers[0].OnIdle()
	r.drain()
	if len(r.hosts[0].committed) != 1 || r.hosts[0].committed[0] != 55 {
		t.Fatalf("committed %v, want [55]", r.hosts[0].committed)
	}
}

func TestNewMatternValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	new(MatternManager).Init(&fakeHost{}, 0, 1, new(nic.SharedWindow), 0)
}

// TestMatternTokenTravelsInOnePacket pins the ownership rule for control
// packets: OnControl owns the packet it is handed, so every hop sends on
// the very packet that arrived and a circulating token allocates nothing;
// the root keeps the token and the announcement that end there and sends
// the next computation out in them.
func TestMatternTokenTravelsInOnePacket(t *testing.T) {
	r := newRing(t, 4, 10)
	r.hosts[3].lvt = 21
	// A white message that stays in transit keeps the cut open, so the
	// token keeps circulating for as long as the test wants.
	white := r.send(1, 5)
	r.managers[0].OnIdle()
	tok := r.queue[0]
	// hop delivers the one queued control packet and leaves the queue's
	// backing array in place, so the harness itself allocates nothing.
	hop := func() {
		pkt := r.queue[0]
		r.queue = r.queue[:0]
		dst := int(pkt.DstNode)
		r.managers[dst].OnControl(pkt)
		if len(r.queue) != 1 || r.queue[0] != pkt {
			t.Fatalf("LP %d did not send on the packet it was handed", dst)
		}
	}
	// Once round the ring joins the wave at every LP; the second lap must
	// then be allocation-free per hop.
	for i := 0; i < 4; i++ {
		hop()
	}
	if allocs := testing.AllocsPerRun(3, hop); allocs != 0 {
		t.Fatalf("%v allocations per token hop, want 0", allocs)
	}
	if r.queue[0] != tok || tok.Token.Round != 2 || tok.DstNode != 1 {
		t.Fatalf("after two laps the token is %v (initiated as %p, now %p)", tok, tok, r.queue[0])
	}

	// Close the cut: the token retires at the root and the announcement
	// leaves in it, then retires there too after its own lap.
	r.deliver(2, white)
	r.drain()
	root := r.managers[0]
	if root.Stats.Computations.Value() != 1 || r.hosts[2].committed[0] != 21 {
		t.Fatalf("computation did not close at 21: %v", r.hosts[2].committed)
	}
	if len(root.spare) != 1 || root.spare[0] != tok {
		t.Fatalf("root holds %d spare packets after one computation, want the one token/announcement packet", len(root.spare))
	}
	// The next computation goes out in it.
	root.OnIdle()
	if r.queue[0] != tok || tok.Token.Round != 0 || tok.Token.Epoch != 2 || tok.WireDup || tok.Seq != 0 {
		t.Fatalf("second computation's token is %v at %p, want a rewritten %p", r.queue[0], r.queue[0], tok)
	}
	r.drain()
	for i, m := range r.managers[1:] {
		if len(m.spare) != 0 {
			t.Fatalf("LP %d kept %d control packets; only the root retires any", i+1, len(m.spare))
		}
	}
}
