// Package mpich models the credit-based flow control of the paper's MPICH
// layer. Event traffic consumes sender-side credits per destination;
// receivers return credit piggybacked on reverse traffic or, when enough is
// owed and no reverse traffic exists, in an explicit credit message.
//
// The layer exists in the reproduction because early cancellation breaks
// naïve credit flow: "dropped packets cause credit to be lost and the
// sender's window to close up". A packet the NIC drops in place never
// occupies receiver buffering, so its credit is refunded at the sender
// (Refund, driven by the firmware's NotifyCreditRefund doorbell) and the
// global credit supply is conserved — an invariant the tests check.
package mpich

import (
	"fmt"

	"nicwarp/internal/dense"
	"nicwarp/internal/proto"
	"nicwarp/internal/stats"
	"nicwarp/internal/vtime"
)

// Config holds flow-control parameters.
type Config struct {
	// Window is the per-destination credit window (packets in flight).
	Window int
	// ReturnThreshold is how much owed credit accumulates before the
	// receiver sends an explicit credit message rather than waiting for
	// reverse traffic to piggyback on.
	ReturnThreshold int
	// SendBufferPackets is the send-buffer capacity (the paper's "MPICH
	// buffers (64K)" in Figure 3a, in packets). When the buffered backlog
	// reaches it, Congested reports true and the host's event loop stalls
	// — MPI's blocking-send semantics. This is the throttle that keeps
	// unbounded optimism from running arbitrarily far ahead of its
	// unsendable messages.
	SendBufferPackets int
}

// DefaultConfig returns a window sized like MPICH's small-message credits
// over BIP. The paper notes "the sending window is increased allowing the
// sender to send for longer periods" as part of the drop repair; 64 is that
// enlarged window.
func DefaultConfig() Config {
	return Config{Window: 64, ReturnThreshold: 16, SendBufferPackets: 340}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Window < 1 {
		return fmt.Errorf("mpich: window must be >= 1, got %d", c.Window)
	}
	if c.ReturnThreshold < 1 || c.ReturnThreshold > c.Window {
		return fmt.Errorf("mpich: return threshold must be in [1, window], got %d", c.ReturnThreshold)
	}
	if c.SendBufferPackets < 1 {
		return fmt.Errorf("mpich: send buffer must hold at least one packet, got %d", c.SendBufferPackets)
	}
	return nil
}

// Endpoint is one node's flow-control state. Outbound packets that clear
// flow control are handed to transmit; packets without credit wait in a
// per-destination buffer (MPICH's 64 KB send buffering in the paper's
// Figure 3a) until credit returns.
type Endpoint struct {
	cfg      Config
	node     int
	transmit func(*proto.Packet)

	// Per-peer state is indexed by node id, each table grown to the highest
	// peer it has been asked about: a peer beyond a table has a full
	// window, is owed nothing, has nothing waiting.
	credits []int32                     // per destination, remaining send credits
	owed    []int32                     // per source, credit to return
	waiting []dense.FIFO[*proto.Packet] //nicwarp:owns stalled sends; drained to the wire when credit arrives
	// pool takes back the explicit credit messages this endpoint has
	// received and booked, and BookOwed builds its own from it: in a
	// cluster, the pool of the engine its node runs on (Init).
	pool *proto.Pool

	// Stats.
	Blocked      stats.Counter // packets that had to wait for credit
	CreditMsgs   stats.Counter // explicit credit messages sent
	Refunded     stats.Counter // credits refunded at the sender (NIC drop refund)
	waitingTotal int
}

// New creates an endpoint with a packet pool of its own; transmit receives
// packets cleared to send.
func New(node int, cfg Config, transmit func(*proto.Packet)) *Endpoint {
	e := new(Endpoint)
	e.Init(node, cfg, transmit, new(proto.Pool), nil, nil)
	return e
}

// Init sets e up in place as node's endpoint: transmit receives packets
// cleared to send, credit messages come from and return to pool, and the
// per-destination credit and per-source owed tables start on credits and
// owed — empty slices with room for every peer, or nil.
func (e *Endpoint) Init(node int, cfg Config, transmit func(*proto.Packet), pool *proto.Pool, credits, owed []int32) {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if transmit == nil {
		panic("mpich: nil transmit")
	}
	*e = Endpoint{cfg: cfg, node: node, transmit: transmit, pool: pool, credits: credits, owed: owed}
}

// flowControlled reports whether a packet kind consumes credits. Event
// traffic does; GVT control and credit messages ride the eager channel.
func flowControlled(k proto.Kind) bool {
	return k == proto.KindEvent || k == proto.KindAnti
}

// creditsFor returns the remaining credit toward dst, opening its window
// on first use.
func (e *Endpoint) creditsFor(dst int32) int {
	e.credits = dense.Grow(e.credits, dst, int32(e.cfg.Window))
	return int(e.credits[dst])
}

// Send submits an outbound packet. Control traffic passes through; event
// traffic consumes a credit or waits for one.
func (e *Endpoint) Send(pkt *proto.Packet) {
	if !flowControlled(pkt.Kind) {
		e.dispatch(pkt)
		return
	}
	if e.creditsFor(pkt.DstNode) <= 0 {
		e.waiting = dense.Grow(e.waiting, pkt.DstNode, dense.FIFO[*proto.Packet]{})
		e.waiting[pkt.DstNode].Push(pkt)
		e.waitingTotal++
		e.Blocked.Inc()
		return
	}
	e.credits[pkt.DstNode]--
	e.dispatch(pkt)
}

// dispatch piggybacks owed credit for the destination and transmits. The
// flow-control header field is always rewritten: a forwarded packet (a
// GVT token, say) would otherwise re-deliver the stale credit piggyback of
// its previous hop and mint credit out of thin air.
func (e *Endpoint) dispatch(pkt *proto.Packet) {
	// Explicit credit messages carry their grant in Credits; everything
	// else gets the field rewritten here.
	if pkt.Kind != proto.KindCredit {
		pkt.Credits = 0
	}
	// A broadcast (destination -1) addresses no single peer and carries no
	// credit: dense.At reads nothing owed for it.
	if owed := dense.At(e.owed, pkt.DstNode); owed > 0 {
		pkt.Credits += owed
		e.owed[pkt.DstNode] = 0
	}
	e.transmit(pkt) //nicwarp:alloc wired by the cluster assembly (one closure per cluster over core's bipTransmit); opaque to the analyzer
}

// OnReceive books an inbound packet's flow-control effects and returns an
// explicit credit packet to send back, or nil. The caller transmits it
// through the normal stack. An explicit credit message goes back to the
// packet pool: the caller must not read it after OnReceive returns.
func (e *Endpoint) OnReceive(pkt *proto.Packet) (creditReply *proto.Packet) {
	owed := 0
	if flowControlled(pkt.Kind) && pkt.Seq != 0 {
		owed = 1
	}
	return e.onReceive(pkt, owed)
}

// OnReceiveBatch books the flow-control effects of an inbound batch frame
// carrying seqSubs accepted event-like sub-messages. The frame's
// piggybacked credit is booked once, like a solo packet's; each
// sub-message consumed one sender credit at Send time,
// so each owes one credit back. Returns an explicit credit packet exactly
// as OnReceive does.
func (e *Endpoint) OnReceiveBatch(frame *proto.Packet, seqSubs int) (creditReply *proto.Packet) {
	return e.onReceive(frame, seqSubs)
}

// onReceive books one inbound packet or frame that consumed owed of its
// sender's credits.
func (e *Endpoint) onReceive(pkt *proto.Packet, owed int) *proto.Packet {
	src := pkt.SrcNode
	// Credit returned to us by the peer.
	if pkt.Credits > 0 {
		e.creditsFor(src)
		e.credits[src] += pkt.Credits
		e.drain(src)
	}
	if pkt.Kind == proto.KindCredit {
		// Booked in full, and never flow-controlled (owed is 0): the packet
		// is dead.
		e.pool.Release(pkt)
	}
	return e.BookOwed(src, owed)
}

// drain releases buffered packets toward dst while credit lasts.
func (e *Endpoint) drain(dst int32) {
	if int(dst) >= len(e.waiting) {
		return
	}
	q := &e.waiting[dst]
	for q.Len() > 0 && e.credits[dst] > 0 {
		e.waitingTotal--
		e.credits[dst]--
		e.dispatch(q.Pop())
	}
}

// BookOwed books n credits as owed to peer — consumed by traffic from it,
// or credit returns salvaged from a dropped packet. When the owed total
// reaches the return threshold it is returned at once in an explicit
// credit packet for the caller to transmit; otherwise it waits to ride on
// reverse traffic and BookOwed returns nil. The packet comes from the
// packet pool.
func (e *Endpoint) BookOwed(peer int32, n int) (creditReply *proto.Packet) {
	if n <= 0 {
		return nil
	}
	e.owed = dense.Grow(e.owed, peer, 0)
	e.owed[peer] += int32(n)
	if e.owed[peer] < int32(e.cfg.ReturnThreshold) {
		return nil
	}
	owed := e.owed[peer]
	e.owed[peer] = 0
	e.CreditMsgs.Inc()
	p := e.pool.Packet()
	*p = proto.Packet{
		Kind:    proto.KindCredit,
		SrcNode: int32(e.node),
		DstNode: peer,
		Credits: owed,
	}
	return p
}

// Refund returns n stranded credits for dst directly to this sender (the
// NIC dropped n of our packets in place; they consumed no receiver buffer).
func (e *Endpoint) Refund(dst int32, n int) {
	if n <= 0 {
		return
	}
	e.creditsFor(dst)
	e.credits[dst] += int32(n)
	e.Refunded.Add(int64(n))
	e.drain(dst)
}

// WaitingCount returns the number of packets buffered for credit.
func (e *Endpoint) WaitingCount() int { return e.waitingTotal }

// PendingMin returns the minimum send timestamp among event-like packets
// waiting for credit. A packet can sit here across an entire GVT
// computation: it is not yet in the NIC's transmitted-white count, so the
// GVT report's floor must bound it (gvt.Host.LVT folds this in).
func (e *Endpoint) PendingMin() vtime.VTime {
	min := vtime.Infinity
	for i := range e.waiting {
		for _, pkt := range e.waiting[i].Live() {
			if pkt.IsEventLike() {
				min = vtime.MinV(min, pkt.SendTS)
			}
		}
	}
	return min
}

// Congested reports whether the send buffer is full: the next send would
// block, so the caller should stall event processing until the backlog
// drains.
func (e *Endpoint) Congested() bool { return e.waitingTotal >= e.cfg.SendBufferPackets }

// CreditsAvailable returns remaining credit toward dst, opening dst's
// window as every credit lookup does: the credit table grows to reach dst.
// The cluster's quiescence checks read it, with the peer's OwedTo, for
// every touched peer of every node in a run with the invariant checker on.
func (e *Endpoint) CreditsAvailable(dst int32) int { return e.creditsFor(dst) }

// OwedTo returns credit owed to src and not yet returned (read by the
// cluster's quiescence checks).
func (e *Endpoint) OwedTo(src int32) int { return int(dense.At(e.owed, src)) }

// TouchedPeers returns, ascending, every peer this endpoint may have
// flow-control state with (credit spent toward, or credit owed to): all
// node ids up to the highest either table has grown to. The invariant
// checker walks it to verify per-pair credit conservation at quiescence;
// a peer in range but never touched holds a full window and conserves
// trivially.
func (e *Endpoint) TouchedPeers() []int32 {
	peers := make([]int32, max(len(e.credits), len(e.owed)))
	for i := range peers {
		peers[i] = int32(i)
	}
	return peers
}
