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
// a new computation every period processed events *without waiting for the
// previous one to complete*: computations pipeline as concurrent waves on
// the FIFO ring (see Ledger). At GVT_COUNT=1 this makes control-message
// volume proportional to the event rate — each wave costs every host a
// dedicated message receive, token rebuild and send — which is exactly the
// regime where the paper's host implementation "breaks down because the
// communication traffic overwhelms the host processor resources" and the
// round counts of Figure 5b grow linearly in 1/GVT_COUNT.
type MatternManager struct {
	host   Host
	shared *nic.SharedWindow
	lp     int
	succ   int // ring successor; lp itself on a one-LP ring

	// period is the GVT_COUNT parameter: the root initiates a new
	// computation every period locally processed events.
	period int
	// maxWaves caps concurrently outstanding computations as a safety
	// valve; initiation is deferred (not dropped) at the cap. WARPED has
	// no such cap; 64 is far above what the ring sustains.
	maxWaves int

	ledger Ledger

	// Root-only state.
	sinceGVT int
	inFlight int
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

// Init binds m in place to LP lp of a lps-LP ring, its host h and the
// node's host/NIC shared window, with the given GVT period (GVT_COUNT).
func (m *MatternManager) Init(h Host, lp, lps int, shared *nic.SharedWindow, period int) {
	if period < 1 {
		panic("gvt: Mattern period must be >= 1")
	}
	*m = MatternManager{host: h, shared: shared, lp: lp, succ: (lp + 1) % lps,
		period: period, maxWaves: DefaultMaxWaves, lastGVT: -1}
}

// isRoot reports whether this LP initiates computations (LP0, as in the
// paper: "a designated root LP starts off the process").
func (m *MatternManager) isRoot() bool { return m.lp == 0 }

// OnProcessed implements Manager: the root counts down the GVT period.
func (m *MatternManager) OnProcessed() {
	if !m.isRoot() {
		return
	}
	m.sinceGVT++
	if m.sinceGVT >= m.period && m.inFlight < m.maxWaves {
		m.initiate()
	}
}

// OnIdle implements Manager: an idle root keeps GVT (and thus termination
// detection) moving even when fewer than period events remain.
func (m *MatternManager) OnIdle() {
	if !m.isRoot() || m.inFlight > 0 || m.lastGVT.IsInf() {
		return
	}
	m.initiate()
}

// initiate launches the root's next wave, one past the last it joined:
// the root is first to join every wave, since it launches them all.
func (m *MatternManager) initiate() {
	m.sinceGVT = 0
	m.inFlight++
	c := m.ledger.Epoch() + 1
	m.ledger.Join(c)
	m.drainNICDrops()
	delta, floor := m.ledger.Visit(c, true, m.host.LVT())
	if m.succ == m.lp {
		// Degenerate ring: the cut closes immediately when nothing is in
		// transit; otherwise re-run on the next initiation.
		if delta == 0 {
			m.finish(floor, c)
		} else {
			m.inFlight--
			m.ledger.Retire(c)
		}
		return
	}
	tok := m.newControl(c)
	tok.Token.Count = delta
	tok.Token.Min = floor
	m.sendOn(tok)
}

// newControl returns a round-0 control packet of computation c originating
// here, every other field zero: a retired packet when the root holds one, a
// fresh one otherwise.
func (m *MatternManager) newControl(c uint32) *proto.Packet {
	pkt := dense.Take(&m.spare, 1)
	*pkt = proto.Packet{
		Kind:  proto.KindGVTControl,
		Token: proto.Token{Epoch: uint64(c), Origin: int32(m.lp)},
	}
	return pkt
}

// sendOn addresses a control packet from this LP to its ring successor and
// sends it. BIP and MPICH restamp Seq and Credits on the way down; every
// other field travels as the caller left it.
//
//nicwarp:hotpath one per control-packet hop
func (m *MatternManager) sendOn(pkt *proto.Packet) {
	pkt.SrcNode = int32(m.lp)
	pkt.DstNode = int32(m.succ)
	m.Stats.ControlMsgs.Inc()
	m.host.SendControl(pkt) //nicwarp:alloc gvt.Host dispatch: core queues a closure-free CPU job
}

// OnSent implements Manager: stamp the outgoing packet's colour.
func (m *MatternManager) OnSent(pkt *proto.Packet) {
	m.ledger.OnSend(pkt)
}

// OnReceived implements Manager: account the inbound packet's colour.
func (m *MatternManager) OnReceived(pkt *proto.Packet) {
	m.ledger.OnRecv(pkt)
}

// OnControl implements Manager: handle a token or value-announcement visit.
// The packet is the manager's from here on: it is sent on rewritten in
// place, or retired at the root.
func (m *MatternManager) OnControl(pkt *proto.Packet) {
	switch {
	case pkt.Kind == proto.KindGVTControl && pkt.Token.Round >= 0:
		m.onToken(pkt)
	case pkt.Kind == proto.KindGVTControl && pkt.Token.Round < 0:
		m.onAnnounce(pkt)
	default:
		panic(fmt.Sprintf("gvt: mattern got unexpected control packet %v", pkt))
	}
}

// onToken folds this LP's contribution into the token and forwards it, or —
// at the root — decides whether the wave has closed its cut.
//
//nicwarp:hotpath one per token hop — several per committed event at period 1
func (m *MatternManager) onToken(pkt *proto.Packet) {
	m.drainNICDrops()

	tok := &pkt.Token
	c := uint32(tok.Epoch)
	first := !m.ledger.Joined(c)
	m.ledger.Join(c)
	delta, floor := m.ledger.Visit(c, first, m.host.LVT()) //nicwarp:alloc gvt.Host dispatch: the kernel's LVT read allocates nothing
	tok.Count += delta
	tok.Min = vtime.MinV(tok.Min, floor)

	if int32(m.lp) == tok.Origin {
		m.Stats.Rounds.Inc()
		if tok.Count == 0 {
			// The cut closed and the token retires here — ahead of finish,
			// so the announcement leaves in it.
			g := tok.Min
			m.spare = append(m.spare, pkt) //nicwarp:alloc free-list growth, bounded by one packet per outstanding wave
			m.finish(g, c)                 //nicwarp:alloc once per computation, not per hop: CommitGVT runs fossil collection, which has hot roots of its own
			return
		}
		// Whites still in transit: another round.
		tok.Round++
	}
	m.sendOn(pkt)
}

// finish completes wave c at the root: commit, retire, announce.
func (m *MatternManager) finish(g vtime.VTime, c uint32) {
	m.commit(g)
	m.inFlight--
	m.ledger.Retire(c)
	m.Stats.Computations.Inc()
	if m.succ == m.lp {
		return
	}
	ann := m.newControl(c)
	ann.Token.Round = -1
	ann.TokenGVT = g
	m.sendOn(ann)
}

// onAnnounce commits the announced value, retires the wave, and forwards
// the announcement until it returns to the root, where it retires.
//
//nicwarp:hotpath one per announcement hop
func (m *MatternManager) onAnnounce(pkt *proto.Packet) {
	if int32(m.lp) == pkt.Token.Origin {
		m.spare = append(m.spare, pkt) //nicwarp:alloc free-list growth, bounded by one packet per outstanding wave
		return
	}
	m.commit(pkt.TokenGVT) //nicwarp:alloc CommitGVT runs fossil collection, which has hot roots of its own
	m.ledger.Retire(uint32(pkt.Token.Epoch))
	m.sendOn(pkt)
}

// commit installs a new GVT value locally. Concurrent waves can complete
// out of GVT order; stale (lower) values are skipped — both are safe lower
// bounds, the larger is simply better.
func (m *MatternManager) commit(g vtime.VTime) {
	if g <= m.lastGVT {
		return
	}
	m.lastGVT = g
	m.host.CommitGVT(g)
}

// OnNotify implements Manager; the host-resident algorithm uses no NIC
// support.
func (m *MatternManager) OnNotify(tag nic.NotifyTag) {}

// drainNICDrops folds NIC-reported dropped-packet counts into the ledger.
// Present for the early-cancellation firmware, which must tell the GVT
// subsystem about packets it discarded in place.
func (m *MatternManager) drainNICDrops() {
	m.ledger.DrainDropped(&m.shared.DroppedWhite)
}
