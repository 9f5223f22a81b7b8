package firmware

import (
	"fmt"

	"nicwarp/internal/dense"
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

// GVTFirmware is the NIC half of the paper's NIC-level GVT (Section 3.1):
// it tracks transmitted white-message counts, moves the computation's
// balance and minimum from NIC to NIC, decides termination at the root,
// distributes the final value, and reports new GVT values to the host —
// all without a single host-generated control message or host-bound token
// DMA.
//
// Division of labour (paper Figure 2): the host keeps colour stamps, the
// minimum red send timestamp and LVT (gvt.NICGVTManager); the NIC does
// everything else. White receives are counted by the host at kernel
// delivery while white sends are counted here at transmit time, so a
// message is "in transit" from the moment it leaves the NIC until the
// kernel absorbs it — the consistency discipline that keeps the estimate
// safe despite host/NIC state being observed at different instants (the
// paper's "consistency is a major issue" lesson).
//
// One program serves two shapes, selected by arity; the send ledger, the
// host handshake (shared window, piggyback or doorbell) and the root's
// decision are the same in both, only the route the balance takes differs:
//
//   - arity 0, the paper's ring: one Mattern token (KindGVTToken) visits
//     every NIC in id order, each folding its host's (T, Tmin, V) in as it
//     passes, and returns to the root after O(n) hops; the root announces
//     the value with one fabric broadcast.
//
//   - arity k ≥ 2, a reduction tree: the nodes form a static k-ary tree
//     over their ids (parent of i is (i-1)/k, root 0) — the NIC-based
//     collective of Yu/Buntinas/Panda applied to GVT. A start token from
//     the parent (at the root: the host's staged initiation) is relayed to
//     the children at once, pure NIC work, which is what makes the fan-out
//     parallel; the node then folds its own host's values and each child's
//     KindGVTReduce partial sum, and with all of them accounted sends one
//     reduce up. The committed value travels back down the same tree as
//     KindGVTBroadcast relays, so a computation converges in O(log n) link
//     hops with the host involved exactly once per node.
//
// At the root a zero balance means the cut is consistent and the min is
// the new GVT; a nonzero balance means messages were in transit across the
// cut, so round r+1 starts carrying the balance and min forward (another
// circulation, or a restaged root handshake and another reduction: each
// round only waits for the previous cut's in-transit messages to land).
//
// Tokens, reduces and value packets are NIC-injected control traffic: they
// bypass the rx credit windows (see nic.gated) and, carrying Seq 0, are
// exempt from random wire faults — the fault plane only delays them — so a
// drop/reorder scenario stretches a computation but cannot wedge it.
type GVTFirmware struct {
	sendLedger
	arity int

	// Tree reduction state for the round in progress. A node is
	// "collecting" from the moment it learns of a round (start token, or
	// staged initiation at the root) until it has folded its host's
	// variables and every child's partial sum. Unused on the ring, where
	// the token itself carries the sum.
	collecting   bool
	round        int32
	origin       int32
	compEpoch    uint64
	hostFolded   bool
	childrenSeen int
	accCount     int64
	accMin       vtime.VTime

	// spare holds control packets this NIC consumed (nic.VerdictConsume
	// makes them the firmware's) for newControl to send out again — the
	// firmware's share of the 1 MB SRAM, so bounded: a node that consumes
	// more than it injects (every broadcast receiver) lets the surplus go.
	spare []*proto.Packet //nicwarp:owns consumed control packets; each leaves again through newControl

	// Statistics. TokensOnNIC counts the control packets this NIC originated
	// or passed on (initiations, ring hops, tree starts and reduces);
	// RoundsAtRoot the circulations or reductions completed at the root.
	TokensOnNIC  stats.Counter
	RoundsAtRoot stats.Counter
}

// NewGVT returns the paper's ring-token NIC-GVT firmware.
func NewGVT() *GVTFirmware {
	return &GVTFirmware{}
}

// NewTreeGVT returns the tree-reduction NIC-GVT firmware with the given
// branching factor (DefaultTreeArity if arity < 2).
func NewTreeGVT(arity int) *GVTFirmware {
	if arity < 2 {
		arity = DefaultTreeArity
	}
	return &GVTFirmware{arity: arity}
}

// children returns this node's tree children as the id range [first, end):
// empty at a leaf, and at every node of the ring.
func (f *GVTFirmware) children(api nic.API) (first, end int) {
	first = f.arity*api.Node() + 1
	return first, max(first, min(first+f.arity, api.NumNodes()))
}

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

// OnWireReceive implements nic.Firmware: absorb tokens, child reductions
// and value broadcasts.
func (f *GVTFirmware) OnWireReceive(pkt *proto.Packet, api nic.API) nic.Verdict {
	api.Charge(CyclesHeaderCheck)
	w := api.Shared()
	switch pkt.Kind {
	case proto.KindGVTToken:
		if w.GVTTokenPending {
			panic(fmt.Sprintf("firmware: node %d received a token while one is pending", api.Node()))
		}
		api.Charge(CyclesTokenFold + CyclesNotify)
		f.join(uint32(pkt.TokenEpoch))
		if f.arity > 0 {
			// A start from the parent: relay it down first, then run the
			// local host handshake.
			f.beginRound(api, pkt.TokenRound, pkt.TokenOrigin, pkt.TokenEpoch)
		}
		stageToken(w, pkt.TokenRound, pkt.TokenCount, pkt.TokenMin, pkt.TokenOrigin, pkt.TokenEpoch)
		api.NotifyHost(nic.NotifyGVTControl)
		f.retire(pkt)
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
		f.retire(pkt)
		f.maybeComplete(api)
		return nic.VerdictConsume
	case proto.KindGVTBroadcast:
		// The committed value: relay it to the subtree (the ring has
		// none), then report to the local host.
		api.Charge(CyclesNotify)
		g, epoch := pkt.TokenGVT, pkt.TokenEpoch
		f.retire(pkt)
		f.relayValue(api, g, epoch)
		deliverValue(api, g)
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

// advance makes progress if both the staged token and the host variables
// are on the NIC ("whenever it gets a chance, the NIC marshals the values
// of T, Tmin and V into a special GVT message and forwards it"): it folds
// the handshake into the token's balance and min, then sends the result on
// its way — the next ring hop, or this node's tree partial sum.
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
	if f.arity > 0 {
		if !f.collecting {
			// Only the root reaches here: a host-staged initiation or a
			// re-reduce restage. Non-root rounds always open at start
			// receipt.
			if !atRoot {
				panic(fmt.Sprintf("firmware: node %d advanced a round it never opened (origin %d)",
					api.Node(), origin))
			}
			if initiation {
				f.TokensOnNIC.Inc()
			}
			f.beginRound(api, round, origin, epoch)
		}
		f.accCount += count
		f.accMin = vtime.MinV(f.accMin, min)
		f.hostFolded = true
		f.maybeComplete(api)
		return
	}
	next := (api.Node() + 1) % api.NumNodes()
	switch {
	case atRoot && initiation:
		// Token creation at the initiating root.
		f.TokensOnNIC.Inc()
		if api.NumNodes() == 1 {
			// Degenerate single-node ring: the cut is already consistent
			// if nothing is in flight. In-transit messages on a single
			// node can only be in the local stack; re-run the handshake
			// as round 1.
			if count == 0 {
				f.announce(api, min, epoch)
			} else {
				requeue(api, 1, count, min, origin, epoch)
			}
			return
		}
		f.injectToken(api, proto.KindGVTToken, next, round, count, min, origin, epoch)
	case atRoot:
		// Token returned to the root: end of a circulation.
		f.decide(api, round, count, min, origin, epoch)
	default:
		// Intermediate hop: forward.
		f.TokensOnNIC.Inc()
		f.injectToken(api, proto.KindGVTToken, next, round, count, min, origin, epoch)
	}
}

// decide closes a round at the root, whose sum now covers every node:
// announce on a zero balance, otherwise start round+1 carrying the balance
// and min forward.
func (f *GVTFirmware) decide(api nic.API, round int32, count int64, min vtime.VTime, origin int32, epoch uint64) {
	f.RoundsAtRoot.Inc()
	switch {
	case count == 0:
		f.announce(api, min, epoch)
	case f.arity > 0:
		// Nowhere to travel first: restage the root's own handshake; its
		// completion opens the next reduction.
		requeue(api, round+1, count, min, origin, epoch)
	default:
		f.injectToken(api, proto.KindGVTToken, (api.Node()+1)%api.NumNodes(), round+1, count, min, origin, epoch)
	}
}

// beginRound opens the tree collection state for one reduction round and
// relays the start token to every child. At a non-root node this runs at
// start receipt (children may report before the local host does); at the
// root it runs when the host's initiation — or a re-reduce restage —
// completes its handshake.
func (f *GVTFirmware) beginRound(api nic.API, round, origin int32, epoch uint64) {
	f.collecting = true
	f.round = round
	f.origin = origin
	f.compEpoch = epoch
	f.hostFolded = false
	f.childrenSeen = 0
	f.accCount = 0
	f.accMin = vtime.Infinity

	for c, end := f.children(api); c < end; c++ {
		f.TokensOnNIC.Inc()
		f.injectToken(api, proto.KindGVTToken, c, round, 0, vtime.Infinity, origin, epoch)
	}
}

// maybeComplete closes the tree round once the host and every child subtree
// have been folded: forward the partial sum up, or decide at the root.
func (f *GVTFirmware) maybeComplete(api nic.API) {
	if !f.collecting || !f.hostFolded {
		return
	}
	if first, end := f.children(api); f.childrenSeen < end-first {
		return
	}
	f.collecting = false
	if f.origin == int32(api.Node()) {
		f.decide(api, f.round, f.accCount, f.accMin, f.origin, f.compEpoch)
		return
	}
	f.TokensOnNIC.Inc()
	f.injectToken(api, proto.KindGVTReduce, (api.Node()-1)/f.arity, f.round, f.accCount, f.accMin, f.origin, f.compEpoch)
}

// spareCap bounds the consumed-packet free list.
const spareCap = 16

// retire takes a packet OnWireReceive is about to answer with
// VerdictConsume. Call it after the last read of pkt.
//
//nicwarp:owns pkt joins the free list and may be rewritten by the next newControl
func (f *GVTFirmware) retire(pkt *proto.Packet) {
	if len(f.spare) < spareCap {
		f.spare = append(f.spare, pkt) //nicwarp:alloc free-list growth, at most spareCap entries
	}
}

// newControl returns a zeroed control packet of the given kind from this
// NIC to dst: a retired one when there is one, a fresh one otherwise.
func (f *GVTFirmware) newControl(api nic.API, kind proto.Kind, dst int) *proto.Packet {
	// A miss means this NIC injects more control packets than it consumes:
	// the ring root's broadcast, a tree parent's fan-out.
	pkt := dense.Take(&f.spare, 1)
	*pkt = proto.Packet{Kind: kind, SrcNode: int32(api.Node()), DstNode: int32(dst)}
	return pkt
}

// injectToken queues one token-bodied control packet for dst: a ring token,
// a tree start, or a subtree's partial reduction.
//
//nicwarp:hotpath one per token hop, tree start and reduce
func (f *GVTFirmware) injectToken(api nic.API, kind proto.Kind, dst int, round int32, count int64, min vtime.VTime, origin int32, epoch uint64) {
	api.Charge(CyclesTokenBuild)
	pkt := f.newControl(api, kind, dst)
	pkt.TokenRound = round
	pkt.TokenCount = count
	pkt.TokenMin = min
	pkt.TokenOrigin = origin
	pkt.TokenEpoch = epoch
	api.Inject(pkt) //nicwarp:alloc nic.API dispatch: the transmit ring's growth is amortized
}

// announce distributes the newly computed GVT from the root — one fabric
// broadcast on the ring, one relay per child down the tree — and reports
// it to the local host.
func (f *GVTFirmware) announce(api nic.API, g vtime.VTime, epoch uint64) {
	api.Charge(CyclesNotify)
	if f.arity > 0 {
		f.relayValue(api, g, epoch)
	} else {
		api.Charge(CyclesTokenBuild)
		if api.NumNodes() > 1 {
			f.injectValue(api, -1, g, epoch)
		}
	}
	deliverValue(api, g)
}

// relayValue forwards a committed GVT value to every tree child.
func (f *GVTFirmware) relayValue(api nic.API, g vtime.VTime, epoch uint64) {
	for c, end := f.children(api); c < end; c++ {
		api.Charge(CyclesTokenBuild)
		f.injectValue(api, c, g, epoch)
	}
}

// injectValue queues one value announcement for dst (-1: every other NIC).
//
//nicwarp:hotpath one per committed value and tree child
func (f *GVTFirmware) injectValue(api nic.API, dst int, g vtime.VTime, epoch uint64) {
	pkt := f.newControl(api, proto.KindGVTBroadcast, dst)
	pkt.TokenGVT = g
	pkt.TokenOrigin = int32(api.Node())
	pkt.TokenEpoch = epoch
	api.Inject(pkt) //nicwarp:alloc nic.API dispatch: the transmit ring's growth is amortized
}

// deliverValue hands a committed GVT value to the local host.
func deliverValue(api nic.API, g vtime.VTime) {
	api.Shared().LatestGVT = g
	api.NotifyHost(nic.NotifyGVTValue)
}
