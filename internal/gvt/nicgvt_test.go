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
	lp        int
	n         int
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

func newNICHost(lp, n int) *nicHost {
	return &nicHost{lp: lp, n: n, lvt: vtime.Infinity, window: nic.NewSharedWindow()}
}

func (h *nicHost) LP() int                     { return h.lp }
func (h *nicHost) NumLPs() int                 { return h.n }
func (h *nicHost) LVT() vtime.VTime            { return h.lvt }
func (h *nicHost) OutboundMin() vtime.VTime    { return vtime.Infinity }
func (h *nicHost) CommitGVT(g vtime.VTime)     { h.committed = append(h.committed, g) }
func (h *nicHost) SendControl(p *proto.Packet) { panic("nic-gvt must not send host control messages") }
func (h *nicHost) Shared() *nic.SharedWindow   { return h.window }
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

func TestNICGVTStartReportsRank(t *testing.T) {
	h := newNICHost(3, 8)
	m := NewNICGVT(100)
	m.Start(h)
	if !h.window.TimewarpInitialized || h.window.Rank != 3 {
		t.Fatalf("window after Start: %+v", h.window)
	}
}

func TestNICGVTInitiationStagesTokenAndPiggybacks(t *testing.T) {
	h := newNICHost(0, 4)
	m := NewNICGVT(2)
	m.Start(h)
	m.OnProcessed(h) // 1 of 2
	if h.window.GVTTokenPending {
		t.Fatal("initiated before the period elapsed")
	}
	m.OnProcessed(h) // 2 of 2: initiate
	w := h.window
	if !w.GVTTokenPending || !w.TokenIsInitiation || w.TokenEpoch != 1 || w.TokenOrigin != 0 {
		t.Fatalf("initiation not staged: %+v", w)
	}
	// The next outgoing event message carries the handshake values.
	h.lvt = 77
	pkt := &proto.Packet{Kind: proto.KindEvent, SendTS: 80}
	m.OnSent(h, pkt)
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
	m.OnSent(h, pkt2)
	if pkt2.PiggyGVTValid {
		t.Fatal("handshake piggybacked twice")
	}
	if m.Stats.Piggybacks.Value() != 1 {
		t.Fatalf("piggybacks = %d", m.Stats.Piggybacks.Value())
	}
}

func TestNICGVTDoorbellFallback(t *testing.T) {
	h := newNICHost(0, 4)
	m := NewNICGVT(1)
	m.Start(h)
	m.OnProcessed(h) // initiate; fallback timer armed
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
	m.OnSent(h, pkt)
	if pkt.PiggyGVTValid {
		t.Fatal("piggybacked after doorbell already delivered the report")
	}
}

func TestNICGVTPiggybackCancelsFallback(t *testing.T) {
	h := newNICHost(0, 4)
	m := NewNICGVT(1)
	m.Start(h)
	m.OnProcessed(h)
	pkt := &proto.Packet{Kind: proto.KindEvent, SendTS: 10}
	m.OnSent(h, pkt) // piggyback wins the race
	h.fireTimers()   // cancelled timer must not doorbell
	if h.doorbells != 0 {
		t.Fatalf("doorbells = %d, want 0", h.doorbells)
	}
}

func TestNICGVTTokenArrivalHandshake(t *testing.T) {
	h := newNICHost(2, 4)
	m := NewNICGVT(100)
	m.Start(h)
	// The firmware stored a token and rang NotifyGVTControl.
	w := h.window
	w.GVTTokenPending = true
	w.ControlMessagePending = true
	w.TokenEpoch = 3
	w.TokenRound = 0
	m.OnNotify(h, nic.NotifyGVTControl)
	// The handshake is staged: the next send answers it.
	h.lvt = 12
	pkt := &proto.Packet{Kind: proto.KindEvent, SendTS: 15}
	m.OnSent(h, pkt)
	if !pkt.PiggyGVTValid || pkt.PiggyT != 12 {
		t.Fatalf("handshake not delivered: %+v", pkt)
	}
}

func TestNICGVTValueCommit(t *testing.T) {
	h := newNICHost(0, 4)
	m := NewNICGVT(1)
	m.Start(h)
	m.OnProcessed(h) // root has a computation in flight
	h.window.LatestGVT = 55
	m.OnNotify(h, nic.NotifyGVTValue)
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
	m.OnProcessed(h)
	if !h.window.GVTTokenPending {
		t.Fatal("root did not initiate after completion")
	}
}

func TestNICGVTWhiteAccountingThroughPiggyback(t *testing.T) {
	h := newNICHost(1, 4)
	m := NewNICGVT(100)
	m.Start(h)
	// Receive two white messages (stamp 0) before joining wave 1.
	m.OnReceived(h, &proto.Packet{Kind: proto.KindEvent, ColorEpoch: 0})
	m.OnReceived(h, &proto.Packet{Kind: proto.KindEvent, ColorEpoch: 0})
	w := h.window
	w.GVTTokenPending = true
	w.TokenEpoch = 1
	m.OnNotify(h, nic.NotifyGVTControl)
	pkt := &proto.Packet{Kind: proto.KindEvent, SendTS: 5}
	m.OnSent(h, pkt)
	if pkt.PiggyV != 2 {
		t.Fatalf("PiggyV = %d, want 2 white receives", pkt.PiggyV)
	}
	// Stamps on sends now carry the joined epoch.
	if pkt.ColorEpoch != 1 {
		t.Fatalf("stamp = %d, want 1", pkt.ColorEpoch)
	}
}

func TestNICGVTIdleStopsAtInfinity(t *testing.T) {
	h := newNICHost(0, 4)
	m := NewNICGVT(100)
	m.Start(h)
	m.OnIdle(h)
	if !h.window.GVTTokenPending {
		t.Fatal("idle root did not initiate")
	}
	// Simulate completion at infinity.
	h.window.GVTTokenPending = false
	h.window.LatestGVT = vtime.Infinity
	m.OnNotify(h, nic.NotifyGVTValue)
	m.OnIdle(h)
	if h.window.GVTTokenPending {
		t.Fatal("re-initiated after GVT reached infinity")
	}
}

func TestNICGVTRejectsHostControl(t *testing.T) {
	h := newNICHost(0, 4)
	m := NewNICGVT(100)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.OnControl(h, &proto.Packet{Kind: proto.KindGVTControl})
}

func TestNICGVTRequiresSharedWindow(t *testing.T) {
	m := NewNICGVT(100)
	bare := &fakeHost{r: &ring{}, lp: 0}
	bare.r.hosts = []*fakeHost{bare}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic without a programmable NIC")
		}
	}()
	m.Start(bare)
}

func TestNewNICGVTValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewNICGVT(0)
}
