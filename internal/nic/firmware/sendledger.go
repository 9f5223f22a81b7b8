package firmware

import (
	"nicwarp/internal/dense"
	"nicwarp/internal/nic"
	"nicwarp/internal/proto"
	"nicwarp/internal/vtime"
)

// sendLedger is the transmit-side Mattern colour accounting of the GVT
// program, in both its shapes — the mirror image of gvt.Ledger's receive
// side. How the balance travels (ring token or tree reduction) is the
// program's business.
type sendLedger struct {
	sent        dense.EpochWindow // transmitted, by stamp, based at the current computation
	reportedOld int64             // white sends already folded into the current computation

	// queuedMin is queuedSendMin's running minimum, and visitQueued is
	// l.foldQueued bound on the first walk: a method value handed to the
	// walk each time would allocate each time.
	queuedMin   vtime.VTime
	visitQueued func(*proto.Packet)
}

// countSend accounts one transmitted event-like packet by its stamp.
func (l *sendLedger) countSend(stamp uint32) { l.sent.Add(stamp, 1) }

// join advances to computation c, folding now-white transmit counts.
func (l *sendLedger) join(c uint32) {
	if c <= l.sent.Base() {
		return
	}
	l.sent.Fold(c)
	l.reportedOld = 0
}

// takeSentDelta returns white transmits not yet folded into the token.
func (l *sendLedger) takeSentDelta() int64 {
	white := l.sent.Folded()
	d := white - l.reportedOld
	l.reportedOld = white
	return d
}

// extractPiggy intercepts a host handshake piggybacked on an outgoing
// packet. It reports whether values landed in the shared window, in which
// case the caller advances its computation.
func extractPiggy(pkt *proto.Packet, api nic.API) bool {
	if !pkt.PiggyGVTValid {
		return false
	}
	api.Charge(CyclesPiggyExtract)
	w := api.Shared()
	w.HostT = pkt.PiggyT
	w.HostTMin = pkt.PiggyTMin
	w.HostV = pkt.PiggyV
	w.ReceivedHostVariables = true
	// The piggyback is meaning only to this NIC; scrub it so the
	// destination cannot misread source-local handshake state.
	pkt.PiggyGVTValid = false
	return true
}

// stageToken parks a token in the shared window, waiting for the host's
// handshake values.
func stageToken(w *nic.SharedWindow, tok proto.Token) {
	w.GVTTokenPending = true
	w.ReceivedHostVariables = false
	w.TokenIsInitiation = false
	w.Token = tok
}

// requeue re-stages a token on this NIC and asks the host for fresh values:
// the root's next round when messages were in transit across the cut and
// the token has nowhere to travel first (a single-node ring, or the tree
// root between reductions).
func requeue(api nic.API, tok proto.Token) {
	stageToken(api.Shared(), tok)
	api.Charge(CyclesNotify)
	api.NotifyHost(nic.NotifyGVTControl)
}

// queuedSendMin returns the minimum send timestamp over event-like packets
// still waiting in the NIC transmit queue. countSend runs at dequeue, so a
// packet stamped in an earlier computation that stays queued (stop/go
// backpressure) across this entire computation is in neither the white
// balance nor the host's red-send minimum; the reported floor must bound it.
// Red-stamped packets re-fold harmlessly — their stamp-time fold into the
// host ledger already bounds them.
func (l *sendLedger) queuedSendMin(api nic.API) vtime.VTime {
	if l.visitQueued == nil {
		l.visitQueued = l.foldQueued
	}
	api.Charge(int64(api.SendQueueLen()) * CyclesQueueScanPerPacket)
	l.queuedMin = vtime.Infinity
	api.SendQueue(l.visitQueued)
	return l.queuedMin
}

// foldQueued is queuedSendMin's visit: it folds one queued packet.
func (l *sendLedger) foldQueued(pkt *proto.Packet) {
	if pkt.IsEventLike() {
		l.queuedMin = vtime.MinV(l.queuedMin, pkt.SendTS)
	}
}
