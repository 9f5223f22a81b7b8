package gvt

import (
	"testing"

	"nicwarp/internal/proto"
	"nicwarp/internal/vtime"
)

// pgvtRing adapts the test ring harness to pGVT managers.
type pgvtRing struct {
	t        *testing.T
	managers []*PGVTManager
	hosts    []*fakeHost
}

func newPGVTRing(t *testing.T, n, period int) (*pgvtRing, *ring) {
	base := &ring{t: t}
	r := &pgvtRing{t: t}
	for i := 0; i < n; i++ {
		r.managers = append(r.managers, newPGVT(period))
		base.hosts = append(base.hosts, &fakeHost{r: base, lp: i, lvt: vtime.Infinity})
	}
	r.hosts = base.hosts
	return r, base
}

// drain processes queued control packets until quiet.
func (r *pgvtRing) drain(base *ring) {
	for guard := 0; len(base.queue) > 0; guard++ {
		if guard > 100000 {
			r.t.Fatal("pgvt control packets never quiesced")
		}
		pkt := base.queue[0]
		base.queue = base.queue[1:]
		dst := int(pkt.DstNode)
		r.managers[dst].OnControl(r.hosts[dst], pkt)
	}
}

func TestPGVTIdleComputesInfinity(t *testing.T) {
	r, base := newPGVTRing(t, 4, 10)
	r.managers[0].OnIdle(r.hosts[0])
	r.drain(base)
	for i, h := range r.hosts {
		if len(h.committed) != 1 || !h.committed[0].IsInf() {
			t.Fatalf("LP %d committed %v", i, h.committed)
		}
	}
}

func TestPGVTBoundsByLVT(t *testing.T) {
	r, base := newPGVTRing(t, 4, 10)
	r.hosts[3].lvt = 21
	r.managers[0].OnIdle(r.hosts[0])
	r.drain(base)
	for i, h := range r.hosts {
		if len(h.committed) != 1 || h.committed[0] != 21 {
			t.Fatalf("LP %d committed %v, want [21]", i, h.committed)
		}
	}
}

func TestPGVTUnackedSendBoundsGVT(t *testing.T) {
	r, base := newPGVTRing(t, 3, 10)
	// LP1 sends an event with receive timestamp 15; it stays unacked.
	pkt := &proto.Packet{Kind: proto.KindEvent, SrcNode: 1, DstNode: 2, SendTS: 10, RecvTS: 15}
	r.managers[1].OnSent(r.hosts[1], pkt)
	r.managers[0].OnIdle(r.hosts[0])
	r.drain(base)
	got := r.hosts[0].committed[len(r.hosts[0].committed)-1]
	if got != 15 {
		t.Fatalf("GVT = %v, want 15 (unacked send)", got)
	}
	// Delivery: the receiver's manager acknowledges; after the ack the
	// bound rises.
	r.managers[2].OnReceived(r.hosts[2], pkt)
	r.drain(base) // routes the KindAck back to LP1
	if got := r.managers[1].bound(r.hosts[1]); !got.IsInf() {
		t.Fatalf("bound after ack = %v, want inf", got)
	}
	r.managers[0].OnIdle(r.hosts[0])
	r.drain(base)
	got = r.hosts[0].committed[len(r.hosts[0].committed)-1]
	if !got.IsInf() {
		t.Fatalf("GVT after ack = %v, want inf", got)
	}
}

func TestPGVTAckMultiset(t *testing.T) {
	m := newPGVT(10)
	h := &fakeHost{lvt: vtime.Infinity}
	p1 := &proto.Packet{Kind: proto.KindEvent, RecvTS: 7}
	p2 := &proto.Packet{Kind: proto.KindEvent, RecvTS: 7}
	p3 := &proto.Packet{Kind: proto.KindEvent, RecvTS: 9}
	m.OnSent(h, p1)
	m.OnSent(h, p2)
	m.OnSent(h, p3)
	if m.minUnacked() != 7 {
		t.Fatalf("min = %v", m.minUnacked())
	}
	m.onAck(&proto.Packet{Kind: proto.KindAck, RecvTS: 7})
	if m.minUnacked() != 7 {
		t.Fatal("multiset: one of two ts=7 sends remains")
	}
	m.onAck(&proto.Packet{Kind: proto.KindAck, RecvTS: 7})
	if m.minUnacked() != 9 {
		t.Fatalf("min = %v, want 9", m.minUnacked())
	}
	m.onAck(&proto.Packet{Kind: proto.KindAck, RecvTS: 9})
	if !m.minUnacked().IsInf() {
		t.Fatal("all acked")
	}
}

func TestPGVTUnknownAckPanics(t *testing.T) {
	m := newPGVT(10)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.onAck(&proto.Packet{Kind: proto.KindAck, RecvTS: 3})
}

func TestPGVTVetoRetries(t *testing.T) {
	r, base := newPGVTRing(t, 2, 10)
	r.hosts[1].lvt = 100
	r.managers[0].OnIdle(r.hosts[0])
	// Process request -> response; before the confirm reaches LP1, its
	// bound drops (a straggler arrived).
	for i := 0; i < 2 && len(base.queue) > 0; i++ {
		pkt := base.queue[0]
		base.queue = base.queue[1:]
		dst := int(pkt.DstNode)
		r.managers[dst].OnControl(r.hosts[dst], pkt)
	}
	r.hosts[1].lvt = 40
	r.drain(base)
	if r.managers[0].Retries == 0 {
		t.Fatal("confirm round should have been vetoed and retried")
	}
	final := r.hosts[0].committed[len(r.hosts[0].committed)-1]
	if final != 40 {
		t.Fatalf("final GVT = %v, want 40", final)
	}
}

func TestPGVTSingleLP(t *testing.T) {
	r, base := newPGVTRing(t, 1, 10)
	r.hosts[0].lvt = 33
	r.managers[0].OnIdle(r.hosts[0])
	r.drain(base)
	if len(r.hosts[0].committed) != 1 || r.hosts[0].committed[0] != 33 {
		t.Fatalf("committed %v", r.hosts[0].committed)
	}
}

func newPGVT(period int) *PGVTManager {
	m := new(PGVTManager)
	m.Init(period)
	return m
}

func TestNewPGVTValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	newPGVT(0)
}
