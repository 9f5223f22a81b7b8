package gvt

import (
	"testing"

	"nicwarp/internal/des"
	"nicwarp/internal/nic"
	"nicwarp/internal/proto"
	"nicwarp/internal/vtime"
)

// nicHost fakes the cluster host for NICGVTManager: it owns a shared window,
// records doorbells and commits, and runs scheduled timers on demand.
type nicHost struct {
	lvt       vtime.VTime
	window    *nic.SharedWindow
	doorbells int
	committed []vtime.VTime
	timers    []fakeTimer
}

// fakeTimer records one armed (fn, arg) callback pair.
type fakeTimer struct {
	fn  func(interface{})
	arg interface{}
}

// newNICGVT returns a manager of the given period on LP lp, bound to a fresh
// fake host.
func newNICGVT(lp, period int) (*NICGVTManager, *nicHost) {
	h := &nicHost{lvt: vtime.Infinity, window: new(nic.SharedWindow)}
	h.window.Init(nic.DefaultDropBufferCap)
	m := new(NICGVTManager)
	m.Init(h, lp, h.window, period, 0)
	return m, h
}

func (h *nicHost) LVT() vtime.VTime            { return h.lvt }
func (h *nicHost) OutboundMin() vtime.VTime    { return vtime.Infinity }
func (h *nicHost) CommitGVT(g vtime.VTime)     { h.committed = append(h.committed, g) }
func (h *nicHost) SendControl(p *proto.Packet) { panic("nic-gvt must not send host control messages") }
func (h *nicHost) RingDoorbell()               { h.doorbells++ }
func (h *nicHost) Now() vtime.ModelTime        { return 0 }
func (h *nicHost) Schedule(d vtime.ModelTime, fn func(interface{}), arg interface{}) des.TimerRef {
	h.timers = append(h.timers, fakeTimer{fn: fn, arg: arg})
	return des.TimerRef{}
}

// fireTimers runs all armed fallback timers, including ones the manager has
// logically cancelled (the zero TimerRef this fake hands out cannot unarm
// them): firing stale timers is exactly the hostile case the manager's
// pendingReport guard must absorb.
func (h *nicHost) fireTimers() {
	for _, ft := range h.timers {
		ft.fn(ft.arg)
	}
	h.timers = nil
}

func TestNICGVTInitiationStagesTokenAndPiggybacks(t *testing.T) {
	m, h := newNICGVT(0, 2)
	m.OnProcessed() // 1 of 2
	if h.window.GVTTokenPending {
		t.Fatal("initiated before the period elapsed")
	}
	m.OnProcessed() // 2 of 2: initiate
	w := h.window
	if !w.GVTTokenPending || !w.TokenIsInitiation || w.Token != (proto.Token{Min: vtime.Infinity, Epoch: 1}) {
		t.Fatalf("initiation not staged: %+v", w)
	}
	// The next outgoing event message carries the handshake values.
	h.lvt = 77
	pkt := &proto.Packet{Kind: proto.KindEvent, SendTS: 80}
	m.OnSent(pkt)
	if !pkt.PiggyGVTValid {
		t.Fatal("handshake not piggybacked")
	}
	if pkt.PiggyT != 77 {
		t.Fatalf("PiggyT = %v, want LVT 77", pkt.PiggyT)
	}
	if pkt.PiggyTMin != 80 {
		t.Fatalf("PiggyTMin = %v, want red send minimum 80", pkt.PiggyTMin)
	}
	// Only the first message carries it.
	pkt2 := &proto.Packet{Kind: proto.KindEvent, SendTS: 90}
	m.OnSent(pkt2)
	if pkt2.PiggyGVTValid {
		t.Fatal("handshake piggybacked twice")
	}
	if m.Stats.Piggybacks.Value() != 1 {
		t.Fatalf("piggybacks = %d", m.Stats.Piggybacks.Value())
	}
}

func TestNICGVTDoorbellFallback(t *testing.T) {
	m, h := newNICGVT(0, 1)
	m.OnProcessed() // initiate; fallback timer armed
	h.lvt = 42
	h.fireTimers() // no outgoing traffic appeared
	if h.doorbells != 1 {
		t.Fatalf("doorbells = %d, want 1", h.doorbells)
	}
	if !h.window.ReceivedHostVariables || h.window.HostT != 42 {
		t.Fatalf("window after fallback: %+v", h.window)
	}
	if m.Stats.Doorbells.Value() != 1 {
		t.Fatal("doorbell not counted")
	}
	// After the fallback fired, an outgoing message must not re-piggyback.
	pkt := &proto.Packet{Kind: proto.KindEvent, SendTS: 50}
	m.OnSent(pkt)
	if pkt.PiggyGVTValid {
		t.Fatal("piggybacked after doorbell already delivered the report")
	}
}

func TestNICGVTPiggybackCancelsFallback(t *testing.T) {
	m, h := newNICGVT(0, 1)
	m.OnProcessed()
	pkt := &proto.Packet{Kind: proto.KindEvent, SendTS: 10}
	m.OnSent(pkt)  // piggyback wins the race
	h.fireTimers() // cancelled timer must not doorbell
	if h.doorbells != 0 {
		t.Fatalf("doorbells = %d, want 0", h.doorbells)
	}
}

func TestNICGVTTokenArrivalHandshake(t *testing.T) {
	m, h := newNICGVT(2, 100)
	// The firmware stored a token and rang NotifyGVTControl.
	w := h.window
	w.GVTTokenPending = true
	w.Token = proto.Token{Epoch: 3}
	m.OnNotify(nic.NotifyGVTControl)
	// The handshake is staged: the next send answers it.
	h.lvt = 12
	pkt := &proto.Packet{Kind: proto.KindEvent, SendTS: 15}
	m.OnSent(pkt)
	if !pkt.PiggyGVTValid || pkt.PiggyT != 12 {
		t.Fatalf("handshake not delivered: %+v", pkt)
	}
}

func TestNICGVTValueCommit(t *testing.T) {
	m, h := newNICGVT(0, 1)
	m.OnProcessed() // root has a computation in flight
	h.window.LatestGVT = 55
	m.OnNotify(nic.NotifyGVTValue)
	if len(h.committed) != 1 || h.committed[0] != 55 {
		t.Fatalf("committed %v", h.committed)
	}
	if m.lastGVT != 55 {
		t.Fatalf("LastGVT = %v", m.lastGVT)
	}
	if m.Stats.Computations.Value() != 1 {
		t.Fatal("computation completion not counted at the root")
	}
	// With the computation finished, the root may initiate again.
	m.OnProcessed()
	if !h.window.GVTTokenPending {
		t.Fatal("root did not initiate after completion")
	}
}

func TestNICGVTWhiteAccountingThroughPiggyback(t *testing.T) {
	m, h := newNICGVT(1, 100)
	// Receive two white messages (stamp 0) before joining wave 1.
	m.OnReceived(&proto.Packet{Kind: proto.KindEvent, ColorEpoch: 0})
	m.OnReceived(&proto.Packet{Kind: proto.KindEvent, ColorEpoch: 0})
	w := h.window
	w.GVTTokenPending = true
	w.Token = proto.Token{Epoch: 1}
	m.OnNotify(nic.NotifyGVTControl)
	pkt := &proto.Packet{Kind: proto.KindEvent, SendTS: 5}
	m.OnSent(pkt)
	if pkt.PiggyV != 2 {
		t.Fatalf("PiggyV = %d, want 2 white receives", pkt.PiggyV)
	}
	// Stamps on sends now carry the joined epoch.
	if pkt.ColorEpoch != 1 {
		t.Fatalf("stamp = %d, want 1", pkt.ColorEpoch)
	}
}

// TestNICGVTKeepsOneLiveWave: the NIC holds one token at a time, so the
// host half retires each computation's wave as it joins the next one, and
// a computation — initiation, piggybacked report, a restaged round that
// rejoins the same computation, value — allocates nothing.
func TestNICGVTKeepsOneLiveWave(t *testing.T) {
	m, h := newNICGVT(0, 1)
	w := h.window
	pkt := &proto.Packet{Kind: proto.KindEvent, SendTS: 5}
	computation := func() {
		m.OnProcessed() // the root initiates the next computation
		m.OnSent(pkt)
		// The cut did not close: the NIC restages the root's handshake.
		w.Token.Round++
		m.OnNotify(nic.NotifyGVTControl)
		m.OnSent(pkt)
		w.GVTTokenPending = false
		w.LatestGVT = vtime.VTime(w.Token.Epoch)
		m.OnNotify(nic.NotifyGVTValue)
		h.timers, h.committed = h.timers[:0], h.committed[:0]
	}
	for c := uint32(1); c <= 3; c++ {
		computation()
		if l := &m.ledger; l.Epoch() != c || len(l.waves) != 1 || l.waves[0].c != c {
			t.Fatalf("after computation %d the ledger is at epoch %d with live waves %+v, want only wave %d",
				c, l.Epoch(), l.waves, c)
		}
	}
	if allocs := testing.AllocsPerRun(100, computation); allocs != 0 {
		t.Fatalf("one computation allocates %.1f times, want 0", allocs)
	}
	if len(m.ledger.waves) != 1 {
		t.Fatalf("%d live waves after %d computations, want 1", len(m.ledger.waves), m.Stats.Computations.Value())
	}
}

func TestNICGVTIdleStopsAtInfinity(t *testing.T) {
	m, h := newNICGVT(0, 100)
	m.OnIdle()
	if !h.window.GVTTokenPending {
		t.Fatal("idle root did not initiate")
	}
	// Simulate completion at infinity.
	h.window.GVTTokenPending = false
	h.window.LatestGVT = vtime.Infinity
	m.OnNotify(nic.NotifyGVTValue)
	m.OnIdle()
	if h.window.GVTTokenPending {
		t.Fatal("re-initiated after GVT reached infinity")
	}
}

func TestNICGVTRejectsHostControl(t *testing.T) {
	m, _ := newNICGVT(0, 100)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.OnControl(&proto.Packet{Kind: proto.KindGVTControl})
}

func TestNewNICGVTValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	newNICGVT(0, 0)
}
