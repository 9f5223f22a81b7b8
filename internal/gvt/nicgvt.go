package gvt

import (
	"cmp"

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
// stages it in the shared window and notifies the host; the host processes the
// colour change and piggybacks its (T, Tmin, V) values "in four unused
// fields in the Basic Event Message" of the next outgoing message. If no
// event traffic appears within fallbackDelay, the host writes the shared
// window directly and rings the NIC doorbell — the relaxed-consistency
// handshake the paper's "lessons learned" recommends.
type NICGVTManager struct {
	host   Host
	shared *nic.SharedWindow
	lp     int

	// period is the GVT_COUNT parameter at the root.
	period int
	// fallbackDelay bounds how long the host waits for outgoing event
	// traffic to piggyback on before paying a doorbell bus crossing.
	fallbackDelay vtime.ModelTime

	ledger Ledger

	pendingReport bool
	fallback      des.TimerRef

	// Root-only state.
	inProgress bool
	sinceGVT   int
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

// Init binds the host half in place to LP lp, its host h and the node's
// host/NIC shared window, with the given GVT period and piggyback patience
// (0 keeps DefaultFallbackDelay). The ring and the tree-reduction NIC GVT
// share it: the host protocol — root-driven initiation through the shared
// window, piggyback/doorbell handshake at every node — is identical, and
// only the NIC firmware's arity differs (firmware.GVTFirmware.Init).
func (m *NICGVTManager) Init(h Host, lp int, shared *nic.SharedWindow, period int, fallbackDelay vtime.ModelTime) {
	if period < 1 {
		panic("gvt: NIC-GVT period must be >= 1")
	}
	*m = NICGVTManager{host: h, shared: shared, lp: lp, period: period,
		fallbackDelay: cmp.Or(fallbackDelay, DefaultFallbackDelay), lastGVT: -1}
}

func (m *NICGVTManager) isRoot() bool { return m.lp == 0 }

// OnProcessed implements Manager.
func (m *NICGVTManager) OnProcessed() {
	if !m.isRoot() {
		return
	}
	m.sinceGVT++
	if m.sinceGVT >= m.period && !m.inProgress {
		m.initiate()
	}
}

// OnIdle implements Manager.
func (m *NICGVTManager) OnIdle() {
	if !m.isRoot() || m.inProgress || m.lastGVT.IsInf() {
		return
	}
	m.initiate()
}

// initiate stages the next computation: the NIC will create the token as
// soon as the host's variables reach it.
func (m *NICGVTManager) initiate() {
	m.inProgress = true
	m.convStart = m.host.Now()
	m.sinceGVT = 0
	c := m.ledger.Epoch() + 1
	m.join(c)
	w := m.shared
	w.GVTTokenPending = true
	w.ReceivedHostVariables = false
	w.TokenIsInitiation = true
	w.Token = proto.Token{Min: vtime.Infinity, Epoch: uint64(c), Origin: int32(m.lp)}
	m.armReport()
}

// join enters computation c as the ledger's one live wave: the NIC holds one
// token at a time, so the computation joined last is over and its wave
// retires. Rejoining it — a later ring round, a tree restage — is a no-op.
func (m *NICGVTManager) join(c uint32) {
	if c <= m.ledger.Epoch() {
		return
	}
	m.ledger.Retire(m.ledger.Epoch())
	m.ledger.Join(c)
}

// armReport requests that the host's (T, Tmin, V) reach the NIC: by
// piggyback if event traffic appears, by doorbell otherwise. The fallback
// is armed closure-free (top-level callback, manager as the threaded
// receiver): GVT rounds fire on every token visit, so a per-arm closure
// would be a steady allocation stream.
func (m *NICGVTManager) armReport() {
	m.pendingReport = true
	m.fallback = m.host.Schedule(m.fallbackDelay, fallbackDoorbell, m)
}

// fallbackDoorbell is the fallbackDelay expiry: no event traffic appeared
// to piggyback on, so pay the doorbell bus crossing.
func fallbackDoorbell(x interface{}) {
	m := x.(*NICGVTManager)
	if !m.pendingReport {
		return
	}
	m.pendingReport = false
	w := m.shared
	m.fillReport(&w.HostT, &w.HostTMin, &w.HostV)
	w.ReceivedHostVariables = true
	m.Stats.Doorbells.Inc()
	m.host.RingDoorbell()
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
func (m *NICGVTManager) fillReport(t, tmin *vtime.VTime, v *int64) {
	*t = vtime.MinV(m.host.LVT(), m.host.OutboundMin())
	*tmin = m.ledger.MinRedSend()
	*v = m.ledger.TakeRecvDelta()
}

// OnSent implements Manager: stamp colour and piggyback a pending report.
func (m *NICGVTManager) OnSent(pkt *proto.Packet) {
	m.ledger.OnSend(pkt)
	if !m.pendingReport {
		return
	}
	m.pendingReport = false
	m.fallback.Cancel()
	m.fallback = des.TimerRef{}
	pkt.PiggyGVTValid = true
	m.fillReport(&pkt.PiggyT, &pkt.PiggyTMin, &pkt.PiggyV)
	m.Stats.Piggybacks.Inc()
}

// OnReceived implements Manager.
func (m *NICGVTManager) OnReceived(pkt *proto.Packet) {
	m.ledger.OnRecv(pkt)
}

// OnControl implements Manager: NIC-GVT has no host-level control messages.
func (m *NICGVTManager) OnControl(pkt *proto.Packet) {
	panic("gvt: NIC-GVT received a host control packet: " + pkt.String())
}

// OnNotify implements Manager: the NIC doorbells.
func (m *NICGVTManager) OnNotify(tag nic.NotifyTag) {
	w := m.shared
	switch tag {
	case nic.NotifyGVTControl:
		// A token arrived on the NIC: join the computation (colour change)
		// and stage the report.
		m.join(uint32(w.Token.Epoch))
		m.armReport()
	case nic.NotifyGVTValue:
		g := w.LatestGVT
		if m.isRoot() {
			if m.inProgress {
				d := m.host.Now() - m.convStart
				m.ConvSum += d
				m.ConvCount++
				if d > m.ConvMax {
					m.ConvMax = d
				}
			}
			m.inProgress = false
			m.Stats.Computations.Inc()
		}
		m.lastGVT = g
		m.host.CommitGVT(g)
	}
}
