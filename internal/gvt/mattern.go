package gvt

import (
	"fmt"

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

// Name implements Manager.
func (m *MatternManager) Name() string { return "mattern" }

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
	tok := &proto.Packet{
		Kind:        proto.KindGVTControl,
		SrcNode:     int32(h.LP()),
		DstNode:     int32(next(h.LP(), h.NumLPs())),
		TokenRound:  0,
		TokenCount:  delta,
		TokenMin:    floor,
		TokenOrigin: int32(h.LP()),
		TokenEpoch:  uint64(c),
	}
	m.Stats.TokenVisits.Inc()
	m.Stats.ControlMsgs.Inc()
	h.SendControl(tok)
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
func (m *MatternManager) onToken(h Host, pkt *proto.Packet) {
	m.Stats.TokenVisits.Inc()
	m.drainNICDrops(h)

	c := uint32(pkt.TokenEpoch)
	first := !m.ledger.Joined(c)
	m.ledger.Join(c)
	delta, floor := m.ledger.Visit(c, first, h.LVT())
	count := pkt.TokenCount + delta
	min := vtime.MinV(pkt.TokenMin, floor)

	if int32(h.LP()) == pkt.TokenOrigin {
		m.Stats.Rounds.Inc()
		if count == 0 {
			m.finish(h, min, c)
			return
		}
		// Whites still in transit: another round.
		m.forward(h, pkt, pkt.TokenRound+1, count, min)
		return
	}
	m.forward(h, pkt, pkt.TokenRound, count, min)
}

// forward sends the token to the next LP on the ring.
func (m *MatternManager) forward(h Host, pkt *proto.Packet, round int32, count int64, min vtime.VTime) {
	fwd := pkt.Clone()
	fwd.SrcNode = int32(h.LP())
	fwd.DstNode = int32(next(h.LP(), h.NumLPs()))
	fwd.TokenRound = round
	fwd.TokenCount = count
	fwd.TokenMin = min
	m.Stats.ControlMsgs.Inc()
	h.SendControl(fwd)
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
	ann := &proto.Packet{
		Kind:        proto.KindGVTControl,
		SrcNode:     int32(h.LP()),
		DstNode:     int32(next(h.LP(), h.NumLPs())),
		TokenRound:  -1,
		TokenGVT:    g,
		TokenOrigin: int32(h.LP()),
		TokenEpoch:  uint64(c),
	}
	m.Stats.ControlMsgs.Inc()
	h.SendControl(ann)
}

// onAnnounce commits the announced value, retires the wave, and forwards
// the announcement until it returns to the root.
func (m *MatternManager) onAnnounce(h Host, pkt *proto.Packet) {
	if int32(h.LP()) == pkt.TokenOrigin {
		return // announcement completed the ring
	}
	m.commit(h, pkt.TokenGVT)
	m.ledger.Retire(uint32(pkt.TokenEpoch))
	fwd := pkt.Clone()
	fwd.SrcNode = int32(h.LP())
	fwd.DstNode = int32(next(h.LP(), h.NumLPs()))
	m.Stats.ControlMsgs.Inc()
	h.SendControl(fwd)
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

// LastGVT returns the most recently committed GVT at this LP.
func (m *MatternManager) LastGVT() vtime.VTime { return m.lastGVT }

// ActiveWaves returns the number of computations currently outstanding (at
// the root) or joined (elsewhere).
func (m *MatternManager) ActiveWaves() int { return m.ledger.ActiveWaves() }

// OnNotify implements Manager; the host-resident algorithm uses no NIC
// support.
func (m *MatternManager) OnNotify(h Host, tag nic.NotifyTag) {}

// drainNICDrops folds NIC-reported dropped-packet counts into the ledger.
// Present for the early-cancellation firmware, which must tell the GVT
// subsystem about packets it discarded in place.
func (m *MatternManager) drainNICDrops(h Host) {
	if w := h.Shared(); w != nil {
		m.ledger.DrainDropped(&w.DroppedWhite)
	}
}
