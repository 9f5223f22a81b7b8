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
	hostFolded   bool
	childrenSeen int
	acc          proto.Token // the round in progress and its partial sum so far

	// Statistics. TokensOnNIC counts the control packets this NIC originated
	// or passed on (initiations, ring hops, tree starts and reduces);
	// RoundsAtRoot the circulations or reductions completed at the root.
	TokensOnNIC  stats.Counter
	RoundsAtRoot stats.Counter
}

// Init sets f up in place as the ring-token firmware (arity 0) or the
// tree-reduction firmware with the given branching factor (at least 2).
func (f *GVTFirmware) Init(arity int) { *f = GVTFirmware{arity: arity} }

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
		f.join(uint32(pkt.Token.Epoch))
		if f.arity > 0 {
			// A start from the parent: relay it down first, then run the
			// local host handshake.
			f.beginRound(api, pkt.Token)
		}
		stageToken(w, pkt.Token)
		api.NotifyHost(nic.NotifyGVTControl)
		return nic.VerdictConsume
	case proto.KindGVTReduce:
		// One child subtree's partial sum.
		if !f.collecting || pkt.Token.Round != f.acc.Round || pkt.Token.Epoch != f.acc.Epoch {
			panic(fmt.Sprintf("firmware: node %d got stray reduce %s during round %d epoch %d",
				api.Node(), pkt, f.acc.Round, f.acc.Epoch))
		}
		api.Charge(CyclesTokenFold)
		f.acc.Count += pkt.Token.Count
		f.acc.Min = vtime.MinV(f.acc.Min, pkt.Token.Min)
		f.childrenSeen++
		f.maybeComplete(api)
		return nic.VerdictConsume
	case proto.KindGVTBroadcast:
		// The committed value: relay it to the subtree (the ring has
		// none), then report to the local host.
		api.Charge(CyclesNotify)
		g, epoch := pkt.TokenGVT, pkt.Token.Epoch
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
	f.join(uint32(w.Token.Epoch)) // no-op except at the initiating root

	tok := w.Token
	tok.Count += f.takeSentDelta() - w.HostV
	tok.Min = vtime.MinV(tok.Min, vtime.MinV(w.HostT, w.HostTMin))
	tok.Min = vtime.MinV(tok.Min, f.queuedSendMin(api))
	initiation := w.TokenIsInitiation

	w.GVTTokenPending = false
	w.ReceivedHostVariables = false
	w.TokenIsInitiation = false

	atRoot := tok.Origin == int32(api.Node())
	if f.arity > 0 {
		if !f.collecting {
			// Only the root reaches here: a host-staged initiation or a
			// re-reduce restage. Non-root rounds always open at start
			// receipt.
			if !atRoot {
				panic(fmt.Sprintf("firmware: node %d advanced a round it never opened (origin %d)",
					api.Node(), tok.Origin))
			}
			if initiation {
				f.TokensOnNIC.Inc()
			}
			f.beginRound(api, tok)
		}
		f.acc.Count += tok.Count
		f.acc.Min = vtime.MinV(f.acc.Min, tok.Min)
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
			if tok.Count == 0 {
				f.announce(api, tok.Min, tok.Epoch)
			} else {
				tok.Round = 1
				requeue(api, tok)
			}
			return
		}
		f.injectToken(api, proto.KindGVTToken, next, tok)
	case atRoot:
		// Token returned to the root: end of a circulation.
		f.decide(api, tok)
	default:
		// Intermediate hop: forward.
		f.TokensOnNIC.Inc()
		f.injectToken(api, proto.KindGVTToken, next, tok)
	}
}

// decide closes a round at the root, whose sum now covers every node:
// announce on a zero balance, otherwise start round+1 carrying the balance
// and min forward.
func (f *GVTFirmware) decide(api nic.API, tok proto.Token) {
	f.RoundsAtRoot.Inc()
	tok.Round++
	switch {
	case tok.Count == 0:
		f.announce(api, tok.Min, tok.Epoch)
	case f.arity > 0:
		// Nowhere to travel first: restage the root's own handshake; its
		// completion opens the next reduction.
		requeue(api, tok)
	default:
		f.injectToken(api, proto.KindGVTToken, (api.Node()+1)%api.NumNodes(), tok)
	}
}

// beginRound opens the tree collection state for round start.Round of
// computation start.Epoch and relays the start token to every child. At a
// non-root node this runs at start receipt (children may report before the
// local host does); at the root it runs when the host's initiation — or a
// re-reduce restage — completes its handshake.
func (f *GVTFirmware) beginRound(api nic.API, start proto.Token) {
	f.collecting = true
	f.hostFolded = false
	f.childrenSeen = 0
	f.acc = proto.Token{Min: vtime.Infinity, Epoch: start.Epoch, Round: start.Round, Origin: start.Origin}

	for c, end := f.children(api); c < end; c++ {
		f.TokensOnNIC.Inc()
		f.injectToken(api, proto.KindGVTToken, c, f.acc)
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
	if f.acc.Origin == int32(api.Node()) {
		f.decide(api, f.acc)
		return
	}
	f.TokensOnNIC.Inc()
	f.injectToken(api, proto.KindGVTReduce, (api.Node()-1)/f.arity, f.acc)
}

// newControl returns a zeroed control packet of the given kind from this
// NIC to dst, taken from the NIC's pool: the control packets this NIC
// consumed went back there (nic.VerdictConsume), beside the event packets
// its node recycles, so a tree parent's fan-out finds one as readily as a
// ring hop does.
func newControl(api nic.API, kind proto.Kind, dst int) *proto.Packet {
	pkt := api.Packet()
	*pkt = proto.Packet{Kind: kind, SrcNode: int32(api.Node()), DstNode: int32(dst)}
	return pkt
}

// injectToken queues one token-bodied control packet for dst: a ring token,
// a tree start, or a subtree's partial reduction.
//
//nicwarp:hotpath one per token hop, tree start and reduce
func (f *GVTFirmware) injectToken(api nic.API, kind proto.Kind, dst int, tok proto.Token) {
	api.Charge(CyclesTokenBuild)
	pkt := newControl(api, kind, dst)
	pkt.Token = tok
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
	pkt := newControl(api, proto.KindGVTBroadcast, dst)
	pkt.TokenGVT = g
	pkt.Token.Origin = int32(api.Node())
	pkt.Token.Epoch = epoch
	api.Inject(pkt) //nicwarp:alloc nic.API dispatch: the transmit ring's growth is amortized
}

// deliverValue hands a committed GVT value to the local host.
func deliverValue(api nic.API, g vtime.VTime) {
	api.Shared().LatestGVT = g
	api.NotifyHost(nic.NotifyGVTValue)
}
