package firmware

import (
	"fmt"

	"nicwarp/internal/nic"
	"nicwarp/internal/proto"
	"nicwarp/internal/stats"
	"nicwarp/internal/vtime"
)

// DefaultTreeArity is the reduction-tree branching factor used when the
// caller does not derive one from the fabric: eight matches the paper's
// switch radix, so an 8-node cluster reduces in a single star step and a
// 1024-node fat-tree reduces in ceil(log8 1024) ≈ 4 levels.
const DefaultTreeArity = 8

// TreeGVTFirmware is the tree-shaped variant of GVTFirmware: instead of
// circulating one Mattern token around an O(n) ring, the nodes form a
// static k-ary tree over their ids (parent of i is (i-1)/k, root 0) and
// each NIC folds its whole subtree's white balance and min(LVT, red-send
// min) into a single KindGVTReduce packet toward its parent — the
// NIC-based collective-reduction structure of Yu/Buntinas/Panda applied
// to GVT. The committed value travels back down the same tree as
// KindGVTBroadcast relays, so a computation converges in O(log n) link
// hops with the host involved exactly once per node (the same
// shared-window piggyback/doorbell handshake the ring variant uses; the
// host half is gvt.NewNICTreeGVT).
//
// One computation round at a node:
//
//  1. a start token (KindGVTToken) arrives from the parent — or, at the
//     root, the host stages an initiation in the shared window. The NIC
//     immediately relays the start to its children (pure NIC work; this
//     is what makes the fan-out parallel) and notifies its host;
//  2. the host's (T, Tmin, V) arrive by piggyback or doorbell and are
//     folded into the node's partial sum, exactly as in the ring;
//  3. each child's KindGVTReduce arrives and is folded in;
//  4. with the host and every child accounted, the node forwards one
//     reduce packet up — or, at the root, decides: balance zero means the
//     cut is consistent and the min broadcasts down; a nonzero balance
//     means messages are still in transit, so the root re-stages its own
//     handshake and starts round r+1 down the tree, carrying the
//     accumulated balance and min exactly like a ring re-circulation
//     (the bounded re-reduce: each round only waits for the in-transit
//     messages of the previous cut to land).
//
// Reduce and start packets are NIC-injected control traffic: they bypass
// the rx credit windows (see nic.gated) and, carrying Seq 0, are exempt
// from random wire faults — the fault plane only delays them — so a
// drop/reorder scenario stretches a computation but cannot wedge it.
type TreeGVTFirmware struct {
	sendLedger
	arity int

	// Per-round reduction state. A node is "collecting" from the moment
	// it learns of a round (start token, or staged initiation at the
	// root) until it has folded its host's variables and every child's
	// partial sum.
	collecting   bool
	round        int32
	origin       int32
	compEpoch    uint64
	hostFolded   bool
	childrenSeen int
	accCount     int64
	accMin       vtime.VTime

	// Statistics.
	TokensStarted   stats.Counter // computations initiated (root only)
	StartsForwarded stats.Counter // start tokens relayed toward children
	Reduces         stats.Counter // partial reductions sent toward the parent
	Broadcasts      stats.Counter // value announcements made at the root
	RoundsAtRoot    stats.Counter // completed reduction rounds at the root
}

// NewTreeGVT returns the tree-reduction GVT firmware with the given
// branching factor (DefaultTreeArity if arity < 2).
func NewTreeGVT(arity int) *TreeGVTFirmware {
	if arity < 2 {
		arity = DefaultTreeArity
	}
	return &TreeGVTFirmware{
		arity:  arity,
		accMin: vtime.Infinity,
	}
}

// Name implements nic.Firmware.
func (f *TreeGVTFirmware) Name() string { return "nic-tree-gvt" }

// numChildren returns how many tree children this node has.
func (f *TreeGVTFirmware) numChildren(api nic.API) int {
	first := f.arity*api.Node() + 1
	if first >= api.NumNodes() {
		return 0
	}
	last := first + f.arity - 1
	if last > api.NumNodes()-1 {
		last = api.NumNodes() - 1
	}
	return last - first + 1
}

// OnHostSend implements nic.Firmware: count white transmits and intercept
// piggybacked host handshake values, exactly as the ring firmware does.
func (f *TreeGVTFirmware) OnHostSend(pkt *proto.Packet, api nic.API) nic.Verdict {
	api.Charge(CyclesHeaderCheck)
	if pkt.IsEventLike() {
		f.countSend(pkt.ColorEpoch)
	}
	if extractPiggy(pkt, api) {
		f.advance(api)
	}
	return nic.VerdictForward
}

// OnWireReceive implements nic.Firmware: absorb start tokens, child
// reductions and value broadcasts.
func (f *TreeGVTFirmware) OnWireReceive(pkt *proto.Packet, api nic.API) nic.Verdict {
	api.Charge(CyclesHeaderCheck)
	w := api.Shared()
	switch pkt.Kind {
	case proto.KindGVTToken:
		// A start token from the parent: relay it down, then run the
		// local host handshake.
		if w.GVTTokenPending {
			panic(fmt.Sprintf("firmware: node %d received a start token while one is pending", api.Node()))
		}
		api.Charge(CyclesTokenFold + CyclesNotify)
		f.join(uint32(pkt.TokenEpoch))
		f.beginRound(api, pkt.TokenRound, pkt.TokenOrigin, pkt.TokenEpoch)
		stageToken(w, pkt.TokenRound, pkt.TokenCount, pkt.TokenMin, pkt.TokenOrigin, pkt.TokenEpoch)
		api.NotifyHost(nic.NotifyGVTControl)
		return nic.VerdictConsume
	case proto.KindGVTReduce:
		// One child subtree's partial sum.
		if !f.collecting || pkt.TokenRound != f.round || pkt.TokenEpoch != f.compEpoch {
			panic(fmt.Sprintf("firmware: node %d got stray reduce %s during round %d epoch %d",
				api.Node(), pkt, f.round, f.compEpoch))
		}
		api.Charge(CyclesTokenFold)
		f.accCount += pkt.TokenCount
		f.accMin = vtime.MinV(f.accMin, pkt.TokenMin)
		f.childrenSeen++
		f.maybeComplete(api)
		return nic.VerdictConsume
	case proto.KindGVTBroadcast:
		// The committed value coming down: relay to the subtree, then
		// report to the local host.
		api.Charge(CyclesNotify)
		f.relayValue(api, pkt.TokenGVT, pkt.TokenEpoch)
		w.LatestGVT = pkt.TokenGVT
		api.NotifyHost(nic.NotifyGVTValue)
		return nic.VerdictConsume
	default:
		return nic.VerdictForward
	}
}

// OnDoorbell implements nic.Firmware.
func (f *TreeGVTFirmware) OnDoorbell(api nic.API) {
	api.Charge(CyclesHeaderCheck)
	f.advance(api)
}

// beginRound opens the collection state for one reduction round and relays
// the start token to every child. At a non-root node this runs at start
// receipt (children may report before the local host does); at the root it
// runs when the host's initiation — or a re-reduce restage — completes its
// handshake.
func (f *TreeGVTFirmware) beginRound(api nic.API, round, origin int32, epoch uint64) {
	f.collecting = true
	f.round = round
	f.origin = origin
	f.compEpoch = epoch
	f.hostFolded = false
	f.childrenSeen = 0
	f.accCount = 0
	f.accMin = vtime.Infinity

	first := f.arity*api.Node() + 1
	for c := first; c < first+f.arity && c < api.NumNodes(); c++ {
		api.Charge(CyclesTokenBuild)
		f.StartsForwarded.Inc()
		api.Inject(&proto.Packet{
			Kind:        proto.KindGVTToken,
			SrcNode:     int32(api.Node()),
			DstNode:     int32(c),
			TokenRound:  round,
			TokenCount:  0,
			TokenMin:    vtime.Infinity,
			TokenOrigin: origin,
			TokenEpoch:  epoch,
		})
	}
}

// advance folds the host's handshake values into the local partial sum once
// both the staged round and the host variables are on the NIC.
func (f *TreeGVTFirmware) advance(api nic.API) {
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

	if !f.collecting {
		// Only the root reaches here: a host-staged initiation or a
		// re-reduce restage. Non-root rounds always open at start receipt.
		if origin != int32(api.Node()) {
			panic(fmt.Sprintf("firmware: node %d advanced a round it never opened (origin %d)",
				api.Node(), origin))
		}
		if initiation {
			f.TokensStarted.Inc()
		}
		f.beginRound(api, round, origin, epoch)
	}
	f.accCount += count
	f.accMin = vtime.MinV(f.accMin, min)
	f.hostFolded = true
	f.maybeComplete(api)
}

// maybeComplete closes the round once the host and every child subtree have
// been folded: forward the partial sum up, or decide at the root.
func (f *TreeGVTFirmware) maybeComplete(api nic.API) {
	if !f.collecting || !f.hostFolded || f.childrenSeen < f.numChildren(api) {
		return
	}
	f.collecting = false
	count := f.accCount
	min := f.accMin
	if f.origin == int32(api.Node()) {
		// Root: the sum covers the whole tree.
		f.RoundsAtRoot.Inc()
		if count == 0 {
			f.announce(api, min, f.compEpoch)
			return
		}
		// Messages were in transit across the cut: restage the host
		// handshake and reduce again, carrying the balance and min
		// forward exactly like a ring re-circulation.
		requeue(api, f.round+1, count, min, f.origin, f.compEpoch)
		return
	}
	api.Charge(CyclesTokenBuild)
	f.Reduces.Inc()
	parent := (api.Node() - 1) / f.arity
	api.Inject(&proto.Packet{
		Kind:        proto.KindGVTReduce,
		SrcNode:     int32(api.Node()),
		DstNode:     int32(parent),
		TokenRound:  f.round,
		TokenCount:  count,
		TokenMin:    min,
		TokenOrigin: f.origin,
		TokenEpoch:  f.compEpoch,
	})
}

// relayValue forwards a committed GVT value to every child.
func (f *TreeGVTFirmware) relayValue(api nic.API, g vtime.VTime, epoch uint64) {
	first := f.arity*api.Node() + 1
	for c := first; c < first+f.arity && c < api.NumNodes(); c++ {
		api.Charge(CyclesTokenBuild)
		api.Inject(&proto.Packet{
			Kind:        proto.KindGVTBroadcast,
			SrcNode:     int32(api.Node()),
			DstNode:     int32(c),
			TokenGVT:    g,
			TokenOrigin: int32(api.Node()),
			TokenEpoch:  epoch,
		})
	}
}

// announce reports the newly computed GVT at the root: down the tree to
// every subtree, and to the local host.
func (f *TreeGVTFirmware) announce(api nic.API, g vtime.VTime, epoch uint64) {
	api.Charge(CyclesNotify)
	f.Broadcasts.Inc()
	f.relayValue(api, g, epoch)
	w := api.Shared()
	w.LatestGVT = g
	api.NotifyHost(nic.NotifyGVTValue)
}
