package firmware

import (
	"fmt"

	"nicwarp/internal/nic"
	"nicwarp/internal/proto"
	"nicwarp/internal/stats"
	"nicwarp/internal/vtime"
)

// GVTFirmware is the NIC half of the paper's NIC-level GVT (Section 3.1):
// it tracks transmitted white-message counts, absorbs and regenerates GVT
// tokens on the NIC, decides termination at the root, broadcasts the final
// value, and reports new GVT values to the host — all without a single
// host-generated control message or host-bound token DMA.
//
// Division of labour (paper Figure 2): the host keeps colour stamps, the
// minimum red send timestamp and LVT (gvt.NICGVTManager); the NIC does
// everything else. White receives are counted by the host at kernel
// delivery while white sends are counted here at transmit time, so a
// message is "in transit" from the moment it leaves the NIC until the
// kernel absorbs it — the consistency discipline that keeps the estimate
// safe despite host/NIC state being observed at different instants (the
// paper's "consistency is a major issue" lesson).
type GVTFirmware struct {
	sendLedger

	// Statistics.
	TokensForwarded stats.Counter
	TokensStarted   stats.Counter
	Broadcasts      stats.Counter
	RoundsAtRoot    stats.Counter
}

// NewGVT returns the NIC-GVT firmware.
func NewGVT() *GVTFirmware {
	return &GVTFirmware{}
}

// Name implements nic.Firmware.
func (f *GVTFirmware) Name() string { return "nic-gvt" }

// OnHostSend implements nic.Firmware: count white transmits and intercept
// piggybacked host handshake values.
func (f *GVTFirmware) OnHostSend(pkt *proto.Packet, api nic.API) nic.Verdict {
	api.Charge(CyclesHeaderCheck)
	if pkt.IsEventLike() {
		f.countSend(pkt.ColorEpoch)
	}
	if extractPiggy(pkt, api) {
		f.advance(api)
	}
	return nic.VerdictForward
}

// OnWireReceive implements nic.Firmware: absorb tokens and broadcasts.
func (f *GVTFirmware) OnWireReceive(pkt *proto.Packet, api nic.API) nic.Verdict {
	api.Charge(CyclesHeaderCheck)
	w := api.Shared()
	switch pkt.Kind {
	case proto.KindGVTToken:
		if w.GVTTokenPending {
			panic(fmt.Sprintf("firmware: node %d received a token while one is pending", api.Node()))
		}
		api.Charge(CyclesTokenFold + CyclesNotify)
		stageToken(w, pkt.TokenRound, pkt.TokenCount, pkt.TokenMin, pkt.TokenOrigin, pkt.TokenEpoch)
		f.join(uint32(pkt.TokenEpoch))
		api.NotifyHost(nic.NotifyGVTControl)
		return nic.VerdictConsume
	case proto.KindGVTBroadcast:
		api.Charge(CyclesNotify)
		w.LatestGVT = pkt.TokenGVT
		api.NotifyHost(nic.NotifyGVTValue)
		return nic.VerdictConsume
	default:
		return nic.VerdictForward
	}
}

// OnDoorbell implements nic.Firmware: the host wrote its variables directly
// (no outgoing traffic to piggyback on).
func (f *GVTFirmware) OnDoorbell(api nic.API) {
	api.Charge(CyclesHeaderCheck)
	f.advance(api)
}

// advance makes token progress if both the token and the host variables are
// on the NIC ("whenever it gets a chance, the NIC marshals the values of T,
// Tmin and V into a special GVT message and forwards it").
func (f *GVTFirmware) advance(api nic.API) {
	w := api.Shared()
	if !w.GVTTokenPending || !w.ReceivedHostVariables {
		return
	}
	api.Charge(CyclesTokenFold)
	f.join(uint32(w.TokenEpoch)) // no-op except at the initiating root

	count := w.TokenCount + f.takeSentDelta() - w.HostV
	min := vtime.MinV(w.TokenMin, vtime.MinV(w.HostT, w.HostTMin))
	min = vtime.MinV(min, queuedSendMin(api))
	round := w.TokenRound
	origin := w.TokenOrigin
	epoch := w.TokenEpoch
	initiation := w.TokenIsInitiation

	w.GVTTokenPending = false
	w.ControlMessagePending = false
	w.ReceivedHostVariables = false
	w.TokenIsInitiation = false

	atRoot := origin == int32(api.Node())
	switch {
	case atRoot && initiation:
		// Token creation at the initiating root.
		f.TokensStarted.Inc()
		if api.NumNodes() == 1 {
			// Degenerate single-node ring: the cut is already consistent
			// if nothing is in flight.
			if count == 0 {
				f.announce(api, min, epoch)
			} else {
				// In-transit messages on a single node can only be in the
				// local stack; re-run the handshake as round 1.
				requeue(api, 1, count, min, origin, epoch)
			}
			return
		}
		f.emitToken(api, round, count, min, origin, epoch)
	case atRoot:
		// Token returned to the root: end of a circulation.
		f.RoundsAtRoot.Inc()
		if count == 0 {
			f.announce(api, min, epoch)
			return
		}
		f.emitToken(api, round+1, count, min, origin, epoch)
	default:
		// Intermediate hop: forward.
		f.TokensForwarded.Inc()
		f.emitToken(api, round, count, min, origin, epoch)
	}
}

// emitToken injects a token bound for the next LP on the ring.
func (f *GVTFirmware) emitToken(api nic.API, round int32, count int64, min vtime.VTime, origin int32, epoch uint64) {
	api.Charge(CyclesTokenBuild)
	next := (api.Node() + 1) % api.NumNodes()
	api.Inject(&proto.Packet{
		Kind:        proto.KindGVTToken,
		SrcNode:     int32(api.Node()),
		DstNode:     int32(next),
		TokenRound:  round,
		TokenCount:  count,
		TokenMin:    min,
		TokenOrigin: origin,
		TokenEpoch:  epoch,
	})
}

// announce broadcasts the newly computed GVT to every other NIC and reports
// it to the local host.
func (f *GVTFirmware) announce(api nic.API, g vtime.VTime, epoch uint64) {
	api.Charge(CyclesTokenBuild + CyclesNotify)
	f.Broadcasts.Inc()
	if api.NumNodes() > 1 {
		api.Inject(&proto.Packet{
			Kind:        proto.KindGVTBroadcast,
			SrcNode:     int32(api.Node()),
			DstNode:     -1,
			TokenGVT:    g,
			TokenOrigin: int32(api.Node()),
			TokenEpoch:  epoch,
		})
	}
	w := api.Shared()
	w.LatestGVT = g
	api.NotifyHost(nic.NotifyGVTValue)
}
