package gvt

import (
	"fmt"

	"nicwarp/internal/nic"
	"nicwarp/internal/proto"
	"nicwarp/internal/vtime"
)

// PGVTManager is a pGVT-style centralized GVT algorithm (D'Souza, Fan &
// Wilsey, PADS'94) — the *other* GVT implementation WARPED ships, which the
// paper mentions and passes over "because [Mattern] has a lower overhead and
// produces good estimates". It is included as a baseline so that trade-off
// is measurable: pGVT acknowledges every event message, which roughly
// doubles control traffic (see the GVT-algorithm ablation).
//
// Protocol (a sound simplification of pGVT's acked reports):
//
//   - Every delivered event-like message is acknowledged to its sender
//     (KindAck). Each LP tracks the multiset of receive timestamps of its
//     unacknowledged sends; its GVT bound is min(LVT, min unacked).
//   - A controller (LP0) runs rounds: REQUEST -> per-LP RESPONSE carrying
//     the bound -> candidate g = min(responses) -> CONFIRM(g) -> per-LP
//     VOTE (ack if the LP's *current* bound is still >= g) -> COMMIT(g) on
//     unanimous approval, else retry.
//
// Soundness of the confirm round: a message sent after its sender's vote
// has send timestamp >= that sender's bound >= g, so it can never roll
// anything below g; a message sent before the vote is either still
// unacknowledged (the sender's bound covers it — a vote would have failed
// if it were below g) or already delivered (the receiver's LVT reflects it
// and its vote would have failed). Hence no in-flight or future message can
// undercut a committed g.
type PGVTManager struct {
	// Period is the GVT_COUNT parameter at the controller.
	Period int

	// Unacknowledged sends: receive-timestamp multiset with a cached
	// minimum.
	unacked  map[vtime.VTime]int
	minValid bool
	minCache vtime.VTime

	lastGVT vtime.VTime

	// Controller-only state.
	sinceGVT   int
	round      uint64
	phase      pgvtPhase
	responses  int
	candidate  vtime.VTime
	votes      int
	vetoed     bool
	inProgress bool

	Stats Stats
	// Acks counts acknowledgement messages sent by this LP.
	Acks int64
	// Retries counts confirm rounds that failed and restarted.
	Retries int64
}

type pgvtPhase int

const (
	pgvtIdle pgvtPhase = iota
	pgvtCollect
	pgvtConfirm
)

// Wire subtypes, carried in TokenRound of KindGVTControl packets.
const (
	pgvtRequest int32 = 100 + iota
	pgvtResponse
	pgvtConfirmMsg
	pgvtVote
	pgvtCommit
)

// NewPGVT creates the manager with the given GVT period.
func NewPGVT(period int) *PGVTManager {
	if period < 1 {
		panic("gvt: pGVT period must be >= 1")
	}
	return &PGVTManager{
		Period:  period,
		unacked: make(map[vtime.VTime]int),
		lastGVT: -1,
	}
}

// Start implements Manager.
func (m *PGVTManager) Start(h Host) {}

func (m *PGVTManager) isController(h Host) bool { return h.LP() == 0 }

// bound returns this LP's GVT lower bound. minUnacked covers sends from the
// moment OnSent stamps them; OutboundMin covers the window before that —
// emitted output the kernel's LVT no longer bounds that has not yet reached
// the transmit path.
func (m *PGVTManager) bound(h Host) vtime.VTime {
	return vtime.MinV(vtime.MinV(h.LVT(), h.OutboundMin()), m.minUnacked())
}

// minUnacked returns the smallest unacknowledged receive timestamp.
func (m *PGVTManager) minUnacked() vtime.VTime {
	if !m.minValid {
		m.minCache = vtime.Infinity
		//nicwarp:ordered commutative fold: min over unacked timestamps
		for ts := range m.unacked {
			if ts < m.minCache {
				m.minCache = ts
			}
		}
		m.minValid = true
	}
	return m.minCache
}

// OnSent implements Manager: every event-like send joins the unacked set.
func (m *PGVTManager) OnSent(h Host, pkt *proto.Packet) {
	m.unacked[pkt.RecvTS]++
	if m.minValid && pkt.RecvTS < m.minCache {
		m.minCache = pkt.RecvTS
	}
}

// OnReceived implements Manager: acknowledge the delivery to the sender.
func (m *PGVTManager) OnReceived(h Host, pkt *proto.Packet) {
	m.Acks++
	h.SendControl(&proto.Packet{
		Kind:    proto.KindAck,
		SrcNode: int32(h.LP()),
		DstNode: pkt.SrcNode,
		RecvTS:  pkt.RecvTS,
	})
}

// OnProcessed implements Manager.
func (m *PGVTManager) OnProcessed(h Host) {
	if !m.isController(h) {
		return
	}
	m.sinceGVT++
	if m.sinceGVT >= m.Period && !m.inProgress {
		m.beginRound(h)
	}
}

// OnIdle implements Manager.
func (m *PGVTManager) OnIdle(h Host) {
	if !m.isController(h) || m.inProgress || m.lastGVT.IsInf() {
		return
	}
	m.beginRound(h)
}

// beginRound broadcasts a REQUEST and seeds the candidate with the
// controller's own bound.
func (m *PGVTManager) beginRound(h Host) {
	m.inProgress = true
	m.sinceGVT = 0
	m.round++
	m.phase = pgvtCollect
	m.candidate = m.bound(h)
	m.responses = 1 // the controller's own
	if h.NumLPs() == 1 {
		m.decide(h)
		return
	}
	m.broadcast(h, pgvtRequest, m.candidate)
}

// broadcast sends a control subtype to every other LP.
func (m *PGVTManager) broadcast(h Host, subtype int32, val vtime.VTime) {
	for lp := 0; lp < h.NumLPs(); lp++ {
		if lp == h.LP() {
			continue
		}
		m.Stats.ControlMsgs.Inc()
		h.SendControl(&proto.Packet{
			Kind:        proto.KindGVTControl,
			SrcNode:     int32(h.LP()),
			DstNode:     int32(lp),
			TokenRound:  subtype,
			TokenGVT:    val,
			TokenEpoch:  m.round,
			TokenOrigin: int32(h.LP()),
		})
	}
}

// reply sends a control subtype back to the controller.
func (m *PGVTManager) reply(h Host, to int32, subtype int32, val vtime.VTime, epoch uint64) {
	m.Stats.ControlMsgs.Inc()
	h.SendControl(&proto.Packet{
		Kind:        proto.KindGVTControl,
		SrcNode:     int32(h.LP()),
		DstNode:     to,
		TokenRound:  subtype,
		TokenGVT:    val,
		TokenEpoch:  epoch,
		TokenOrigin: int32(h.LP()),
	})
}

// OnControl implements Manager.
func (m *PGVTManager) OnControl(h Host, pkt *proto.Packet) {
	switch pkt.Kind {
	case proto.KindAck:
		m.onAck(pkt)
		return
	case proto.KindGVTControl:
	default:
		panic(fmt.Sprintf("gvt: pgvt got unexpected packet %v", pkt))
	}
	switch pkt.TokenRound {
	case pgvtRequest:
		m.reply(h, pkt.SrcNode, pgvtResponse, m.bound(h), pkt.TokenEpoch)
	case pgvtResponse:
		if pkt.TokenEpoch != m.round || m.phase != pgvtCollect {
			return // stale round
		}
		m.candidate = vtime.MinV(m.candidate, pkt.TokenGVT)
		m.responses++
		if m.responses == h.NumLPs() {
			m.confirm(h)
		}
	case pgvtConfirmMsg:
		ok := m.bound(h) >= pkt.TokenGVT
		val := vtime.VTime(0)
		if ok {
			val = 1
		}
		m.reply(h, pkt.SrcNode, pgvtVote, val, pkt.TokenEpoch)
	case pgvtVote:
		if pkt.TokenEpoch != m.round || m.phase != pgvtConfirm {
			return
		}
		if pkt.TokenGVT == 0 {
			m.vetoed = true
		}
		m.votes++
		if m.votes == h.NumLPs() {
			m.decide(h)
		}
	case pgvtCommit:
		m.commit(h, pkt.TokenGVT)
	default:
		panic(fmt.Sprintf("gvt: pgvt got unknown subtype %d", pkt.TokenRound))
	}
}

// confirm starts the confirm round for the collected candidate.
func (m *PGVTManager) confirm(h Host) {
	m.phase = pgvtConfirm
	m.votes = 1 // the controller's own vote
	m.vetoed = m.bound(h) < m.candidate
	m.broadcast(h, pgvtConfirmMsg, m.candidate)
}

// decide concludes a confirm round at the controller.
func (m *PGVTManager) decide(h Host) {
	m.phase = pgvtIdle
	m.inProgress = false
	if m.vetoed {
		// Someone's bound dropped below the candidate; retry immediately
		// with fresh values.
		m.Retries++
		m.vetoed = false
		m.beginRound(h)
		return
	}
	m.Stats.Computations.Inc()
	m.Stats.Rounds.Inc()
	m.commit(h, m.candidate)
	if h.NumLPs() > 1 {
		m.broadcast(h, pgvtCommit, m.candidate)
	}
}

// commit installs a value locally (monotone).
func (m *PGVTManager) commit(h Host, g vtime.VTime) {
	if g <= m.lastGVT {
		return
	}
	m.lastGVT = g
	h.CommitGVT(g)
}

// onAck removes one send from the unacked multiset.
func (m *PGVTManager) onAck(pkt *proto.Packet) {
	ts := pkt.RecvTS
	n, ok := m.unacked[ts]
	if !ok {
		panic(fmt.Sprintf("gvt: pgvt ack for unknown send ts %v", ts))
	}
	if n == 1 {
		delete(m.unacked, ts)
	} else {
		m.unacked[ts] = n - 1
	}
	if m.minValid && ts == m.minCache {
		m.minValid = false
	}
}

// OnNotify implements Manager; pGVT uses no NIC support.
func (m *PGVTManager) OnNotify(h Host, tag nic.NotifyTag) {}
