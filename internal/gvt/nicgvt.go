package gvt

import (
	"nicwarp/internal/des"
	"nicwarp/internal/nic"
	"nicwarp/internal/proto"
	"nicwarp/internal/vtime"
)

// NICGVTManager is the host half of the paper's NIC-level GVT: the division
// of labour from the paper's Figure 2. The host keeps track of colour
// stamps, the minimum timestamp of red messages sent, and LVT; the NIC
// (internal/nic/firmware.GVTFirmware) tracks transmitted white counts,
// generates and receives GVT tokens, decides termination, and reports new
// GVT values.
//
// The host↔NIC handshake follows the paper: when a token arrives, the NIC
// raises ControlMessagePending and notifies the host; the host processes the
// colour change and piggybacks its (T, Tmin, V) values "in four unused
// fields in the Basic Event Message" of the next outgoing message. If no
// event traffic appears within FallbackDelay, the host writes the shared
// window directly and rings the NIC doorbell — the relaxed-consistency
// handshake the paper's "lessons learned" recommends.
type NICGVTManager struct {
	// Period is the GVT_COUNT parameter at the root.
	Period int
	// FallbackDelay bounds how long the host waits for outgoing event
	// traffic to piggyback on before paying a doorbell bus crossing.
	FallbackDelay vtime.ModelTime

	ledger *Ledger

	// host is the LP capability surface, captured once in Start so the
	// fallback callback can run closure-free (see armReport).
	host Host

	pendingReport bool
	fallback      des.TimerRef

	// Root-only state.
	inProgress bool
	sinceGVT   int
	compEpoch  uint32
	lastGVT    vtime.VTime

	// Root-only convergence tracking: model time from staging a
	// computation to committing its value.
	convStart vtime.ModelTime
	ConvSum   vtime.ModelTime
	ConvMax   vtime.ModelTime
	ConvCount int64

	Stats Stats
}

// DefaultFallbackDelay is the default piggyback patience.
const DefaultFallbackDelay = 150 * vtime.Microsecond

// NewNICGVT creates the host half with the given GVT period. The ring and
// the tree-reduction NIC GVT share it: the host protocol — root-driven
// initiation through the shared window, piggyback/doorbell handshake at
// every node — is identical, and only the NIC firmware differs
// (firmware.NewGVT vs firmware.NewTreeGVT).
func NewNICGVT(period int) *NICGVTManager {
	if period < 1 {
		panic("gvt: NIC-GVT period must be >= 1")
	}
	return &NICGVTManager{
		Period:        period,
		FallbackDelay: DefaultFallbackDelay,
		ledger:        NewLedger(),
		lastGVT:       -1,
	}
}

// Start implements Manager: report the LP rank through the shared window,
// as the paper's initialization does.
func (m *NICGVTManager) Start(h Host) {
	m.host = h
	w := h.Shared()
	if w == nil {
		panic("gvt: NIC-GVT requires a programmable NIC (no shared window)")
	}
	w.Rank = h.LP()
	w.TimewarpInitialized = true
}

func (m *NICGVTManager) isRoot(h Host) bool { return h.LP() == 0 }

// OnProcessed implements Manager.
func (m *NICGVTManager) OnProcessed(h Host) {
	if !m.isRoot(h) {
		return
	}
	m.sinceGVT++
	if m.sinceGVT >= m.Period && !m.inProgress {
		m.initiate(h)
	}
}

// OnIdle implements Manager.
func (m *NICGVTManager) OnIdle(h Host) {
	if !m.isRoot(h) || m.inProgress || m.lastGVT.IsInf() {
		return
	}
	m.initiate(h)
}

// initiate stages computation compEpoch+1: the NIC will create the token as
// soon as the host's variables reach it.
func (m *NICGVTManager) initiate(h Host) {
	m.inProgress = true
	m.convStart = h.Now()
	m.sinceGVT = 0
	m.compEpoch++
	m.ledger.Join(m.compEpoch)
	w := h.Shared()
	w.GVTTokenPending = true
	w.ReceivedHostVariables = false
	w.TokenIsInitiation = true
	w.TokenRound = 0
	w.TokenCount = 0
	w.TokenMin = vtime.Infinity
	w.TokenEpoch = uint64(m.compEpoch)
	w.TokenOrigin = int32(h.LP())
	m.armReport(h)
}

// armReport requests that the host's (T, Tmin, V) reach the NIC: by
// piggyback if event traffic appears, by doorbell otherwise. The fallback
// is armed closure-free (top-level callback, manager as the threaded
// receiver): GVT rounds fire on every token visit, so a per-arm closure
// would be a steady allocation stream.
func (m *NICGVTManager) armReport(h Host) {
	m.pendingReport = true
	m.fallback = h.Schedule(m.FallbackDelay, fallbackDoorbell, m)
}

// fallbackDoorbell is the FallbackDelay expiry: no event traffic appeared
// to piggyback on, so pay the doorbell bus crossing.
func fallbackDoorbell(x interface{}) {
	m := x.(*NICGVTManager)
	if !m.pendingReport {
		return
	}
	m.pendingReport = false
	h := m.host
	w := h.Shared()
	m.fillReport(h, &w.HostT, &w.HostTMin, &w.HostV)
	w.ReceivedHostVariables = true
	m.Stats.Doorbells.Inc()
	h.RingDoorbell()
}

// fillReport computes the host's handshake values: T (LVT), Tmin (min red
// send timestamp) and V (white receives not yet reported; the NIC subtracts
// it from the token count and adds its own transmitted-white delta).
//
// T folds the outbound horizon: a report can be filled (piggyback or
// doorbell) while messages the kernel already emitted are still parked,
// credit-stalled or DMAing toward the NIC. Those carry send timestamps the
// kernel's LVT no longer covers, and when white-stamped in an earlier
// computation they are outside the token's count balance too — without the
// fold a round can close with count == 0 over a low-timestamp message still
// in the local stack, and the commit overshoots it.
func (m *NICGVTManager) fillReport(h Host, t, tmin *vtime.VTime, v *int64) {
	*t = vtime.MinV(h.LVT(), h.OutboundMin())
	*tmin = m.ledger.MinRedSend()
	*v = m.ledger.TakeRecvDelta()
}

// OnSent implements Manager: stamp colour and piggyback a pending report.
func (m *NICGVTManager) OnSent(h Host, pkt *proto.Packet) {
	m.ledger.OnSend(pkt)
	if !m.pendingReport {
		return
	}
	m.pendingReport = false
	m.fallback.Cancel()
	m.fallback = des.TimerRef{}
	pkt.PiggyGVTValid = true
	m.fillReport(h, &pkt.PiggyT, &pkt.PiggyTMin, &pkt.PiggyV)
	pkt.PiggyRound = h.Shared().TokenRound
	m.Stats.Piggybacks.Inc()
}

// OnReceived implements Manager.
func (m *NICGVTManager) OnReceived(h Host, pkt *proto.Packet) {
	m.ledger.OnRecv(pkt)
}

// OnControl implements Manager: NIC-GVT has no host-level control messages.
func (m *NICGVTManager) OnControl(h Host, pkt *proto.Packet) {
	panic("gvt: NIC-GVT received a host control packet: " + pkt.String())
}

// OnNotify implements Manager: the NIC doorbells.
func (m *NICGVTManager) OnNotify(h Host, tag nic.NotifyTag) {
	w := h.Shared()
	switch tag {
	case nic.NotifyGVTControl:
		// A token arrived on the NIC: join the computation (colour change)
		// and stage the report.
		m.ledger.Join(uint32(w.TokenEpoch))
		m.armReport(h)
	case nic.NotifyGVTValue:
		g := w.LatestGVT
		if m.isRoot(h) {
			if m.inProgress {
				d := h.Now() - m.convStart
				m.ConvSum += d
				m.ConvCount++
				if d > m.ConvMax {
					m.ConvMax = d
				}
			}
			m.inProgress = false
			m.Stats.Computations.Inc()
		}
		// A lazy-cancellation flush can send anti-messages below the
		// committed GVT, and a computation that counts them closes below it:
		// skip the stale value, as the host managers do.
		if g < m.lastGVT {
			return
		}
		m.lastGVT = g
		h.CommitGVT(g)
	}
}
