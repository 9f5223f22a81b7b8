package gvt

import (
	"fmt"

	"nicwarp/internal/dense"
	"nicwarp/internal/nic"
	"nicwarp/internal/proto"
	"nicwarp/internal/vtime"
)

// MatternManager is the host-resident Mattern token-ring GVT algorithm —
// WARPED's default and the baseline the paper's Figures 4 and 5 measure
// NIC-GVT against.
//
// Faithful to WARPED's behaviour at aggressive settings, the root launches
// a new computation every Period processed events *without waiting for the
// previous one to complete*: computations pipeline as concurrent waves on
// the FIFO ring (see WaveLedger). At GVT_COUNT=1 this makes control-message
// volume proportional to the event rate — each wave costs every host a
// dedicated message receive, token rebuild and send — which is exactly the
// regime where the paper's host implementation "breaks down because the
// communication traffic overwhelms the host processor resources" and the
// round counts of Figure 5b grow linearly in 1/GVT_COUNT.
type MatternManager struct {
	// Period is the GVT_COUNT parameter: the root initiates a new
	// computation every Period locally processed events.
	Period int
	// MaxWaves caps concurrently outstanding computations as a safety
	// valve; initiation is deferred (not dropped) at the cap. WARPED has
	// no such cap; 64 is far above what the ring sustains.
	MaxWaves int

	ledger *WaveLedger

	// Root-only state.
	sinceGVT int
	inFlight int
	compSeq  uint32
	lastGVT  vtime.VTime
	// spare holds the control packets that ended their journey at the root
	// — a token whose cut closed, an announcement back from its lap — for
	// finish and initiate to send out again. Every other hop rewrites the
	// packet it was handed and sends that (OnControl owns its packet), so
	// a wave travels in one packet, token and then announcement, and a
	// ring in steady state circulates one packet per outstanding wave.
	spare []*proto.Packet //nicwarp:owns control packets retired at the root; each leaves again through newControl

	Stats Stats
}

// DefaultMaxWaves bounds concurrent GVT waves.
const DefaultMaxWaves = 64

// NewMattern creates the manager with the given GVT period (GVT_COUNT).
func NewMattern(period int) *MatternManager {
	if period < 1 {
		panic("gvt: Mattern period must be >= 1")
	}
	return &MatternManager{
		Period:   period,
		MaxWaves: DefaultMaxWaves,
		ledger:   NewWaveLedger(),
		lastGVT:  -1,
	}
}

// Start implements Manager.
func (m *MatternManager) Start(h Host) {}

// isRoot reports whether this LP initiates computations (LP0, as in the
// paper: "a designated root LP starts off the process").
func (m *MatternManager) isRoot(h Host) bool { return h.LP() == 0 }

// OnProcessed implements Manager: the root counts down the GVT period.
func (m *MatternManager) OnProcessed(h Host) {
	if !m.isRoot(h) {
		return
	}
	m.sinceGVT++
	if m.sinceGVT >= m.Period && m.inFlight < m.MaxWaves {
		m.initiate(h)
	}
}

// OnIdle implements Manager: an idle root keeps GVT (and thus termination
// detection) moving even when fewer than Period events remain.
func (m *MatternManager) OnIdle(h Host) {
	if !m.isRoot(h) || m.inFlight > 0 || m.lastGVT.IsInf() {
		return
	}
	m.initiate(h)
}

// initiate launches wave compSeq+1 at the root.
func (m *MatternManager) initiate(h Host) {
	m.sinceGVT = 0
	m.inFlight++
	m.compSeq++
	c := m.compSeq
	m.ledger.Join(c)
	m.drainNICDrops(h)
	delta, floor := m.ledger.Visit(c, true, h.LVT())
	if h.NumLPs() == 1 {
		// Degenerate ring: the cut closes immediately when nothing is in
		// transit; otherwise re-run on the next initiation.
		if delta == 0 {
			m.finish(h, floor, c)
		} else {
			m.inFlight--
			m.ledger.Retire(c)
		}
		return
	}
	tok := m.newControl(h, c)
	tok.TokenCount = delta
	tok.TokenMin = floor
	m.sendOn(h, tok)
}

// newControl returns a round-0 control packet of computation c originating
// here, every other field zero: a retired packet when the root holds one, a
// fresh one otherwise.
func (m *MatternManager) newControl(h Host, c uint32) *proto.Packet {
	pkt := dense.Take(&m.spare, 1)
	*pkt = proto.Packet{
		Kind:        proto.KindGVTControl,
		TokenOrigin: int32(h.LP()),
		TokenEpoch:  uint64(c),
	}
	return pkt
}

// sendOn addresses a control packet from this LP to its ring successor and
// sends it. BIP and MPICH restamp Seq and Credits on the way down; every
// other field travels as the caller left it.
//
//nicwarp:hotpath one per control-packet hop
func (m *MatternManager) sendOn(h Host, pkt *proto.Packet) {
	lp := h.LP() //nicwarp:alloc gvt.Host dispatch: an accessor in core
	pkt.SrcNode = int32(lp)
	pkt.DstNode = int32(next(lp, h.NumLPs())) //nicwarp:alloc gvt.Host dispatch: an accessor in core
	m.Stats.ControlMsgs.Inc()
	h.SendControl(pkt) //nicwarp:alloc gvt.Host dispatch: core queues a closure-free CPU job
}

// OnSent implements Manager: stamp the outgoing packet's colour.
func (m *MatternManager) OnSent(h Host, pkt *proto.Packet) {
	m.ledger.OnSend(pkt)
}

// OnReceived implements Manager: account the inbound packet's colour.
func (m *MatternManager) OnReceived(h Host, pkt *proto.Packet) {
	m.ledger.OnRecv(pkt)
}

// OnControl implements Manager: handle a token or value-announcement visit.
// The packet is the manager's from here on: it is sent on rewritten in
// place, or retired at the root.
func (m *MatternManager) OnControl(h Host, pkt *proto.Packet) {
	switch {
	case pkt.Kind == proto.KindGVTControl && pkt.TokenRound >= 0:
		m.onToken(h, pkt)
	case pkt.Kind == proto.KindGVTControl && pkt.TokenRound < 0:
		m.onAnnounce(h, pkt)
	default:
		panic(fmt.Sprintf("gvt: mattern got unexpected control packet %v", pkt))
	}
}

// onToken folds this LP's contribution into the token and forwards it, or —
// at the root — decides whether the wave has closed its cut.
//
//nicwarp:hotpath one per token hop — several per committed event at period 1
func (m *MatternManager) onToken(h Host, pkt *proto.Packet) {
	m.drainNICDrops(h)

	c := uint32(pkt.TokenEpoch)
	first := !m.ledger.Joined(c)
	m.ledger.Join(c)
	delta, floor := m.ledger.Visit(c, first, h.LVT()) //nicwarp:alloc gvt.Host dispatch: the kernel's LVT read allocates nothing
	pkt.TokenCount += delta
	pkt.TokenMin = vtime.MinV(pkt.TokenMin, floor)

	if int32(h.LP()) == pkt.TokenOrigin { //nicwarp:alloc gvt.Host dispatch: an accessor in core
		m.Stats.Rounds.Inc()
		if pkt.TokenCount == 0 {
			// The cut closed and the token retires here — ahead of finish,
			// so the announcement leaves in it.
			g := pkt.TokenMin
			m.spare = append(m.spare, pkt) //nicwarp:alloc free-list growth, bounded by one packet per outstanding wave
			m.finish(h, g, c)              //nicwarp:alloc once per computation, not per hop: CommitGVT runs fossil collection, which has hot roots of its own
			return
		}
		// Whites still in transit: another round.
		pkt.TokenRound++
	}
	m.sendOn(h, pkt)
}

// finish completes wave c at the root: commit, retire, announce.
func (m *MatternManager) finish(h Host, g vtime.VTime, c uint32) {
	m.commit(h, g)
	m.inFlight--
	m.ledger.Retire(c)
	m.Stats.Computations.Inc()
	if h.NumLPs() == 1 {
		return
	}
	ann := m.newControl(h, c)
	ann.TokenRound = -1
	ann.TokenGVT = g
	m.sendOn(h, ann)
}

// onAnnounce commits the announced value, retires the wave, and forwards
// the announcement until it returns to the root, where it retires.
//
//nicwarp:hotpath one per announcement hop
func (m *MatternManager) onAnnounce(h Host, pkt *proto.Packet) {
	if int32(h.LP()) == pkt.TokenOrigin { //nicwarp:alloc gvt.Host dispatch: an accessor in core
		m.spare = append(m.spare, pkt) //nicwarp:alloc free-list growth, bounded by one packet per outstanding wave
		return
	}
	m.commit(h, pkt.TokenGVT) //nicwarp:alloc CommitGVT runs fossil collection, which has hot roots of its own
	m.ledger.Retire(uint32(pkt.TokenEpoch))
	m.sendOn(h, pkt)
}

// commit installs a new GVT value locally. Concurrent waves can complete
// out of GVT order; stale (lower) values are skipped — both are safe lower
// bounds, the larger is simply better.
func (m *MatternManager) commit(h Host, g vtime.VTime) {
	if g <= m.lastGVT {
		return
	}
	m.lastGVT = g
	h.CommitGVT(g)
}

// OnNotify implements Manager; the host-resident algorithm uses no NIC
// support.
func (m *MatternManager) OnNotify(h Host, tag nic.NotifyTag) {}

// drainNICDrops folds NIC-reported dropped-packet counts into the ledger.
// Present for the early-cancellation firmware, which must tell the GVT
// subsystem about packets it discarded in place.
func (m *MatternManager) drainNICDrops(h Host) {
	if w := h.Shared(); w != nil { //nicwarp:alloc gvt.Host dispatch: an accessor in core
		m.ledger.DrainDropped(&w.DroppedWhite)
	}
}
