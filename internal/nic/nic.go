// Package nic models the programmable network interface card: a LanAI4-class
// device with its own slow processor (66 MHz), limited SRAM, send and receive
// queues, DMA engines toward the host I/O bus, and — the paper's enabling
// feature — replaceable firmware.
//
// Firmware is expressed as a Go implementation of the Firmware interface.
// Hooks run at packet dequeue time on the modeled NIC processor; every unit
// of work a hook performs must be paid for in NIC processor cycles through
// API.Charge, which is how the model reproduces the paper's observation that
// per-message NIC checks make NIC-GVT *slower* than the host implementation
// when GVT runs infrequently.
package nic

import (
	"fmt"
	"slices"

	"nicwarp/internal/dense"
	"nicwarp/internal/des"
	"nicwarp/internal/proto"
	"nicwarp/internal/simnet"
	"nicwarp/internal/stats"
	"nicwarp/internal/vtime"
)

// The paper's LanAI4 firmware timing: a per-packet firmware path (header
// parsing, DMA programming, ring bookkeeping) on the order of ten
// microseconds at 66 MHz — the "equivalent of 10 year old technology ...
// already saddled with the other responsibilities". Every run uses it;
// varying one is a model change with its own ablation, not a Config field.
const (
	// SendCycles is the base processor work to launch one packet (~6us).
	SendCycles int64 = 400
	// RecvCycles is the base processor work to accept one packet (~4.8us).
	RecvCycles int64 = 320
	// PerSubMsgCycles is the NIC processor work charged per sub-message
	// folded into (transmit) or expanded from (receive) a batch frame, on
	// top of SendCycles/RecvCycles (~0.9us). A frame therefore costs
	// SendCycles + N*PerSubMsgCycles, which is what makes the batch-vs-
	// latency tradeoff a real modeled curve rather than a free win.
	PerSubMsgCycles int64 = 60
	// CreditReturnDelay is the link-level round-trip cost of the stop/go
	// credit coming back from the receiver: the time between the
	// destination host consuming a packet and the sender learning its
	// window reopened. It bounds how stale a sender's view of the receive
	// buffer may be, and is the NIC's share of the cross-shard lookahead
	// contract.
	CreditReturnDelay = 8 * vtime.Microsecond
)

// Config holds the NIC parameters an experiment varies.
type Config struct {
	// ClockHz is the NIC processor clock (66 MHz LanAI4 in the paper).
	ClockHz float64
	// RxQueueCap is the receive-buffer capacity in packets (the paper's
	// NIC has a 4 KB buffer, roughly 28 wire packets). Myrinet's link-level
	// stop/go flow control propagates a full receive buffer back to the
	// sender, so host-bound packets occupy a buffer slot from the moment
	// the sending NIC launches them until the destination *host* consumes
	// them; a congested receiver therefore backs traffic up into the
	// sender's NIC send queue — the buffering the paper's early
	// cancellation preys on (its Figure 3a). Each sender tracks its share
	// of the destination's RxQueueCap as a credit window (see WirePeers)
	// and stalls head-of-line when it closes.
	RxQueueCap int

	// BatchMax, when > 1, enables NIC-side send batching under whatever
	// firmware is installed: at dequeue time the NIC gathers up to
	// BatchMax-1 additional queued event-like packets bound for the head
	// packet's destination and folds them, with the head, into one
	// KindBatch frame — one wire header, one BIP sequence range, one link
	// arbitration, one I/O-bus crossing at the receiver (at most
	// proto.MaxBatchSubs sub-messages). 0 or 1 leaves batching off (the
	// default), keeping every committed schedule byte-identical to the
	// unbatched simulator.
	BatchMax int
	// FlushHorizon bounds the extra latency batching may add: a
	// batch-eligible head packet waits at most this long (in model time,
	// from its enqueue) for partners to accumulate before the pump flushes
	// whatever is available. Zero means no waiting — batches form only
	// from backlog already queued at dequeue time.
	FlushHorizon vtime.ModelTime
}

// DefaultConfig returns the paper's LanAI4 NIC: a 66 MHz processor and a
// six-packet receive buffer, with batching off.
func DefaultConfig() Config {
	return Config{ClockHz: 66e6, RxQueueCap: 6}
}

// gated reports whether a packet kind consumes a receive-buffer slot at the
// destination. GVT tokens, broadcasts and tree-reduce partials are consumed
// on the NIC itself and never cross toward the host.
func gated(k proto.Kind) bool {
	return k != proto.KindGVTToken && k != proto.KindGVTBroadcast && k != proto.KindGVTReduce
}

// Verdict is a firmware decision about a packet.
type Verdict int

// Firmware verdicts.
const (
	// VerdictForward continues the packet along its normal path: to the
	// wire for outgoing packets, to the host for incoming ones.
	VerdictForward Verdict = iota
	// VerdictConsume ends the packet's journey at the NIC: the firmware has
	// handled it (a GVT token folded in, for example). A packet consumed on
	// receive goes back to the NIC's packet pool when the hook returns, so
	// the hook must not keep it; one consumed on send is the firmware's.
	// Firmware that sends takes its packets from API.Packet.
	VerdictConsume
	// VerdictDrop discards the packet (early cancellation).
	VerdictDrop
)

// String implements fmt.Stringer.
func (v Verdict) String() string {
	switch v {
	case VerdictForward:
		return "forward"
	case VerdictConsume:
		return "consume"
	case VerdictDrop:
		return "drop"
	default:
		return fmt.Sprintf("verdict(%d)", int(v))
	}
}

// NotifyTag labels a NIC-to-host doorbell interrupt.
type NotifyTag int

// Doorbell tags.
const (
	// NotifyGVTControl: a GVT token arrived on the NIC and the host must
	// report its variables (colour change handshake).
	NotifyGVTControl NotifyTag = iota
	// NotifyGVTValue: a freshly computed GVT value is in the shared window.
	NotifyGVTValue
	// NotifyCreditRefund: the NIC dropped packets in place and recorded the
	// stranded flow-control credit in the shared window for the host to
	// reclaim.
	NotifyCreditRefund
)

// Firmware is a NIC program. Implementations must do all their work inside
// the hooks and account for it with API.Charge; they must not retain the
// API between hooks.
type Firmware interface {
	// OnHostSend runs when a host-originated packet is dequeued for
	// transmission — once per packet, whether it then travels alone or
	// folded into a batch frame. VerdictConsume and VerdictDrop both
	// prevent transmission (VerdictConsume says who owns the packet then).
	OnHostSend(pkt *proto.Packet, api API) Verdict
	// OnWireReceive runs when a packet arrives from the fabric, before any
	// DMA toward the host. Firmware never sees a KindBatch frame: the NIC
	// presents each sub-message as the solo packet it was folded from,
	// valid for the one call, and a frame is delivered as a unit, so the
	// verdict for a sub-message must be Forward.
	OnWireReceive(pkt *proto.Packet, api API) Verdict
	// OnDoorbell runs when the host rings the NIC after updating the
	// shared window (the fallback path when there is no outgoing traffic
	// to piggyback on).
	OnDoorbell(api API)
}

// API is the capability surface a firmware hook sees — the paper's
// programming model: queue access, shared host memory, packet injection and
// host notification.
//
// The methods marked //nicwarp:hotpath are the ones hot firmware hooks call
// per packet: the marker makes hotalloc hold this package's implementation
// to the zero-allocation contract and lets hooks written against the
// interface be hot roots themselves.
type API interface {
	// Node returns this NIC's node id.
	//nicwarp:hotpath read by every hook that addresses a packet
	Node() int
	// NumNodes returns the cluster size (for ring next-hop and broadcast).
	NumNodes() int
	// Charge accounts n extra NIC processor cycles to the current hook.
	//nicwarp:hotpath called several times per hook
	Charge(n int64)
	// SendQueue calls visit with each packet queued for transmission and
	// not yet in flight, host-submitted and NIC-injected alike, in queue
	// order. The packet is visit's to read for that call only; visit must
	// not change the queue.
	SendQueue(visit func(*proto.Packet))
	// SendQueueLen returns the number of packets SendQueue visits.
	//nicwarp:hotpath sizes the cancel scan's cycle charge, once per anti-message
	SendQueueLen() int
	// RemoveFromSendQueue offers each queued host packet to pred, in queue
	// order, and returns how many pred took. A packet pred takes leaves the
	// queue, is shown to the discard observer and, if event-like, goes back
	// to the NIC's packet pool before pred sees the next one: pred books
	// what it needs from a packet before it returns true, and keeps no
	// pointer to it. pred must not walk or change the send queue.
	//nicwarp:hotpath the cancel scan, once per anti-message
	RemoveFromSendQueue(pred func(*proto.Packet) bool) int
	// Packet returns a packet from the NIC's pool for the hook to
	// fill and Inject. Its contents are unspecified: the caller overwrites
	// every field.
	//nicwarp:hotpath one per control packet the GVT firmware builds
	Packet() *proto.Packet
	// Inject queues a NIC-generated packet for transmission. Injected
	// packets do not pass through OnHostSend.
	Inject(pkt *proto.Packet)
	// Shared returns the host/NIC shared memory window.
	//nicwarp:hotpath read by every hook that keeps state in the window
	Shared() *SharedWindow
	// NotifyHost raises a doorbell interrupt toward the host.
	//nicwarp:hotpath one doorbell per packet dropped in place
	NotifyHost(tag NotifyTag)
	// Stats returns the NIC's counters for firmware-maintained metrics.
	//nicwarp:hotpath bumped per dropped or filtered packet
	Stats() *Stats
}

// Stats aggregates NIC counters, including those maintained by firmware.
type Stats struct {
	HostTx      stats.Counter // host-originated packets transmitted
	NICTx       stats.Counter // NIC-originated packets transmitted
	RxDelivered stats.Counter // packets DMAed to the host
	RxConsumed  stats.Counter // packets absorbed by firmware

	DroppedInPlace stats.Counter // outgoing positives cancelled in the send queue
	AntisFiltered  stats.Counter // outgoing antis filtered against the drop buffer
	DropsDeclined  stats.Counter // cancellable positives forwarded because their object's drop ring was full
	FirmwareCycles stats.Counter // extra cycles charged by firmware hooks

	BatchFrames stats.Counter // batch frames put on the wire
	BatchSubs   stats.Counter // sub-messages carried inside batch frames
}

// outEntry is one transmit-queue slot.
type outEntry struct {
	pkt     *proto.Packet //nicwarp:owns transmit-queue slot; cleared when the packet leaves the queue
	fromNIC bool
	enqAt   vtime.ModelTime // enqueue instant; anchors the batch flush horizon
}

// NIC is one node's network interface.
type NIC struct {
	eng    *des.Engine
	node   int
	cfg    Config
	proc   des.Resource // the LanAI processor
	fabric *simnet.Fabric
	fw     Firmware
	shared SharedWindow

	// deliverToHost and notifyHost are wired by the cluster assembly
	// (WireArg), each called with host. deliverToHost models the
	// NIC-to-host DMA (I/O bus) and host-side delivery; a packet that holds
	// an rx slot keeps it until the host calls HostConsumed. notifyHost
	// models the doorbell write and the host interrupt.
	deliverToHost func(host interface{}, pkt *proto.Packet, holdsSlot bool)
	notifyHost    func(host interface{}, tag NotifyTag)
	host          interface{}
	// peer resolves another node's NIC for credit-return addressing.
	peer func(node int) *NIC

	// sendQ is the transmit queue. The cancel scan and the batch gather
	// also remove from its middle: they filter Live() into its own prefix
	// and DropTail the rest.
	sendQ     dense.Queue[outEntry]
	recvQ     dense.Queue[*proto.Packet] //nicwarp:owns receive ring; slots zeroed as packets advance to rxPkt
	txPumping bool
	rxPumping bool
	txStalled bool // head-of-line blocked on a closed destination window

	txFaultStalled bool // transmit pump frozen by the fault plane
	faultHeld      int  // rx slots occupied by the fault plane

	// onHostDiscard observes every host-submitted packet the NIC discards
	// on the transmit side (early cancellation, anti suppression) instead
	// of putting it on the wire. Installed by the invariant checker so its
	// in-transit accounting can retire deliberately dropped messages.
	onHostDiscard func(*proto.Packet)

	// In-flight pump state. txPumping/rxPumping guarantee at most one
	// packet per pump stage, so these fields (with the SubmitArg
	// trampolines below) replace per-packet completion closures.
	txEntry   outEntry
	txVerdict Verdict
	txDepart  vtime.ModelTime    // instant the announced packet finishes serializing onto the wire
	xfer      vtime.TransferMemo // of simnet.LinkBandwidth
	rxPkt     *proto.Packet      //nicwarp:owns in-flight receive bound for the host; nil once the firmware consumed or dropped it
	rxVerdict Verdict
	// rxSlotSrc is the sender owed a receive-buffer credit for the in-flight
	// packet (a gated kind, not a wire duplicate), or -1. Latched before the
	// firmware hook runs: a consumed packet is the firmware's to rewrite.
	rxSlotSrc int32

	// Sender-side stop/go flow control: the window of packets this NIC may
	// have outstanding toward each destination. A credit is taken when a
	// host-bound packet leaves the send queue for the wire and comes back
	// (after CreditReturnDelay) once the destination host consumes it.
	txCredit []int32

	// Receiver-side credit bookkeeping. rxSrcQ pairs host-delivery
	// completions with the source that gets the credit back: deliveries
	// complete in delivery order (the host bus and CPU are FIFO), so a
	// FIFO suffices. While the fault plane holds buffer slots (faultHeld),
	// returning credits park in debtQ instead of traveling back, one per
	// held slot.
	rxSrcQ dense.Queue[int32]
	debtQ  dense.FIFO[int32]

	pendingCycles int64 // accumulated via API.Charge during a hook

	// batch is the array assembleBatch gathers a frame's partners into; it
	// holds no packet once assembleBatch returns.
	batch []*proto.Packet //nicwarp:owns partners of the frame being assembled, nilled before assembleBatch returns

	// pool is where batch frames and firmware-built packets come from, and
	// where host packets that die here (dropped in place, or folded into a
	// batch frame, which copies their fields) and packets firmware consumes
	// on receive go. A cluster hands every NIC, host and MPICH endpoint on
	// one engine that engine's pool, so only its goroutine touches it.
	pool *proto.Pool

	// Batching machinery (transmit side active when cfg.BatchMax > 1).
	rxSub   proto.Packet    // the sub-message view expandBatch hands to firmware, one hook call at a time
	flushAt vtime.ModelTime // deadline of the armed flush timer (0 = none)

	Stats Stats
}

// New creates a NIC attached to port node of the fabric, running fw, with a
// packet pool of its own and the default drop buffer.
func New(eng *des.Engine, node int, cfg Config, fabric *simnet.Fabric, fw Firmware) *NIC {
	n := new(NIC)
	n.Init(eng, node, cfg, fabric, fw, new(proto.Pool), DefaultDropBufferCap, nil)
	return n
}

// Init sets n up in place as the NIC attached to port node of the fabric,
// running fw, taking packets from and returning them to pool, with a drop
// buffer of dropCap entries per object. txCredit is where WirePeers opens
// the per-destination windows: an empty slice with room for every port (a
// row of one cluster-wide array), or nil. The engine's current lane must be
// node's.
func (n *NIC) Init(eng *des.Engine, node int, cfg Config, fabric *simnet.Fabric, fw Firmware, pool *proto.Pool, dropCap int, txCredit []int32) {
	if fw == nil {
		panic("nic: nil firmware")
	}
	if cfg.ClockHz <= 0 {
		panic("nic: nonpositive clock")
	}
	*n = NIC{eng: eng, node: node, cfg: cfg, fabric: fabric, fw: fw, pool: pool, txCredit: txCredit}
	n.proc.Init(eng, "nic-proc")
	n.shared.Init(dropCap)
	fabric.AttachArg(node, eng, uint32(node), pool, nicWireReceive, n)
}

// Wire connects the NIC to its host-side delivery and notification paths:
// deliverToHost must invoke done when the host has consumed the packet,
// freeing the rx slot. Must be called before traffic flows.
func (n *NIC) Wire(deliverToHost func(pkt *proto.Packet, done func()), notifyHost func(NotifyTag)) {
	if deliverToHost == nil || notifyHost == nil {
		panic("nic: Wire with nil callback")
	}
	done := n.HostConsumed
	n.WireArg(func(_ interface{}, pkt *proto.Packet, holdsSlot bool) {
		if holdsSlot {
			deliverToHost(pkt, done)
		} else {
			deliverToHost(pkt, func() {})
		}
	}, func(_ interface{}, tag NotifyTag) { notifyHost(tag) }, nil)
}

// WireArg is Wire with the callbacks threaded through host, as
// des.Engine.AtArg threads its argument, so a host needs no closure:
// deliver learns whether the packet holds an rx slot, and the host calls
// HostConsumed once it has consumed such a packet.
func (n *NIC) WireArg(deliver func(host interface{}, pkt *proto.Packet, holdsSlot bool), notify func(host interface{}, tag NotifyTag), host interface{}) {
	n.deliverToHost, n.notifyHost, n.host = deliver, notify, host
}

// WirePeers supplies the NIC-to-NIC lookup used to address returning
// flow-control credits, and opens the per-destination windows. The
// receiver's buffer is shared by its *concurrent* senders, so each
// sender's static window is sized near the fair share of the fabric's
// last-stage fan-in — twice the share, clamped to [1, RxQueueCap],
// approximating the multiplexing a shared buffer gives bursty flows while
// keeping the aggregate a receiver can see outstanding within a small
// factor of RxQueueCap. On the crossbar the fan-in is every other port; on
// a multi-stage topology it is the final-stage switch radix, so windows
// stay useful at 1024 nodes instead of collapsing to the 1/n fair share.
// Must be called before traffic flows, after every peer NIC exists.
func (n *NIC) WirePeers(peer func(node int) *NIC) {
	if peer == nil {
		panic("nic: WirePeers with nil lookup")
	}
	n.peer = peer
	senders := n.fabric.FanIn()
	if senders < 1 {
		senders = 1
	}
	n.txCredit = slices.Grow(n.txCredit[:0], n.fabric.NumPorts())[:n.fabric.NumPorts()]
	for i := range n.txCredit {
		cap := peer(i).cfg.RxQueueCap
		w := (2*cap + senders - 1) / senders
		if w > cap {
			w = cap
		}
		if w < 1 {
			w = 1
		}
		n.txCredit[i] = int32(w)
	}
}

// HostConsumed is the host-delivery completion for packets that hold a
// receive-buffer slot: the host consumed the oldest outstanding delivery,
// so its slot frees and the credit starts traveling back to that
// packet's sender. Deliveries complete in delivery order (FIFO host bus
// and CPU), which is what pairs the ring head with the right source.
func (n *NIC) HostConsumed() {
	n.returnCredit(n.rxSrcQ.Pop())
}

// returnCredit sends one flow-control credit back toward src, unless the
// fault plane currently holds buffer slots, in which case the credit parks
// in the debt queue until FaultReleaseRx.
func (n *NIC) returnCredit(src int32) {
	if n.faultHeld > n.debtQ.Len() {
		n.debtQ.Push(src)
		return
	}
	n.sendCredit(src)
}

// sendCredit models the stop/go credit's trip back to the sender: after
// CreditReturnDelay the sender's window toward this node reopens by one.
// The arrival is planted on the sender's engine, so a sender on another
// shard learns of it at the next window merge.
func (n *NIC) sendCredit(src int32) {
	p := n.peer(int(src))
	n.eng.AtCross(p.eng, uint32(p.node), n.eng.Now()+CreditReturnDelay, nicCreditArrive, p, n)
}

// nicCreditArrive runs on the sender's engine: one credit came back from
// the returning NIC, reopening the sender's window toward it.
func nicCreditArrive(a, b interface{}) {
	sender := a.(*NIC)
	from := b.(*NIC)
	sender.txCredit[from.node]++
	if sender.txStalled {
		// Re-check the head: the pump re-stalls if this credit was for a
		// different destination than the one blocking it.
		sender.txStalled = false
		sender.txPump()
	}
}

// SetHostDiscardHook installs the transmit-side discard observer. Call
// before traffic flows; a nil hook disables observation.
func (n *NIC) SetHostDiscardHook(fn func(*proto.Packet)) { n.onHostDiscard = fn }

// batchEligible reports whether a host packet may lead or join a batch
// frame: ordinary unicast event traffic that BIP has stamped. GVT
// handshake piggybacks are excluded — a queued piggyback must dequeue
// individually so its extraction hook fires before any fold — and they
// stop a gather toward their destination (see gatherBatch).
func batchEligible(p *proto.Packet) bool {
	return p.IsEventLike() && !p.PiggyGVTValid && p.DstNode >= 0 && p.Seq != 0
}

// batchAvailable counts, under the gather stop rule, the queued host
// packets currently foldable into a frame for dst (including the head),
// capped at BatchMax.
//
//nicwarp:hotpath batch-availability scan, executed on every transmit pump while batching
func (n *NIC) batchAvailable(dst int32) int {
	count := 0
	for _, e := range n.sendQ.Live() {
		if e.fromNIC || e.pkt.DstNode != dst {
			continue
		}
		if !batchEligible(e.pkt) {
			break
		}
		count++
		if count >= n.cfg.BatchMax {
			break
		}
	}
	return count
}

// armFlush schedules a transmit-pump kick at the flush-horizon deadline,
// unless a timer that fires at or before it is already pending. Stale
// timers (the held head departed early because partners arrived) re-run
// the pump harmlessly.
func (n *NIC) armFlush(deadline vtime.ModelTime) {
	now := n.eng.Now()
	if n.flushAt > now && n.flushAt <= deadline {
		return
	}
	n.flushAt = deadline
	n.eng.AtArg(deadline, nicFlushExpire, n)
}

// nicFlushExpire is the flush-horizon timer: the held head has waited long
// enough, flush whatever is available.
func nicFlushExpire(x interface{}) {
	x.(*NIC).txPump()
}

// FaultHoldRx occupies up to k receive-buffer slots on behalf of the fault
// plane, returning how many were taken. While slots are held, an equal
// number of outgoing flow-control credits are withheld, so senders see the
// buffer shrink exactly as if a slow host pinned those slots.
func (n *NIC) FaultHoldRx(k int) int {
	held := k
	if room := n.cfg.RxQueueCap - n.faultHeld; held > room {
		held = room
	}
	if held < 0 {
		held = 0
	}
	n.faultHeld += held
	return held
}

// FaultReleaseRx releases slots taken by FaultHoldRx, letting any credits
// parked against them travel back to their senders.
func (n *NIC) FaultReleaseRx(k int) {
	if k > n.faultHeld {
		k = n.faultHeld
	}
	n.faultHeld -= k
	for i := 0; i < k; i++ {
		if n.debtQ.Len() > 0 {
			n.sendCredit(n.debtQ.Pop())
		}
	}
}

// SetTxFaultStall freezes (true) or resumes (false) the transmit pump on
// behalf of the fault plane, modeling a NIC processor busy with other
// duties; the send queue accumulates backlog while frozen.
func (n *NIC) SetTxFaultStall(v bool) {
	n.txFaultStalled = v
	if !v {
		n.txPump()
	}
}

// Shared returns the host/NIC shared memory window.
func (n *NIC) Shared() *SharedWindow { return &n.shared }

// ProcUtilizationAt returns the NIC processor's utilization up to the
// run's end clock (Group.Now in a sharded run, where a member engine's own
// clock stops at its last local event).
func (n *NIC) ProcUtilizationAt(end vtime.ModelTime) float64 { return n.proc.UtilizationAt(end) }

// Idle reports whether the NIC has no queued or in-flight work.
func (n *NIC) Idle() bool {
	return n.sendQ.Len() == 0 && n.recvQ.Len() == 0 && n.proc.Idle() && !n.txPumping
}

// HostEnqueue accepts a packet whose host-to-NIC DMA just completed.
func (n *NIC) HostEnqueue(pkt *proto.Packet) {
	n.enqueue(outEntry{pkt: pkt})
}

// enqueue adds to the transmit queue and starts the pump.
func (n *NIC) enqueue(e outEntry) {
	e.enqAt = n.eng.Now()
	n.sendQ.Push(e)
	n.txPump()
}

// cycles converts a processor cycle count to model time at the NIC clock.
func (n *NIC) cycles(c int64) vtime.ModelTime {
	return vtime.Cycles(c, n.cfg.ClockHz)
}

// takeCharge drains cycles accumulated by firmware during the last hook.
func (n *NIC) takeCharge() int64 {
	c := n.pendingCycles
	n.pendingCycles = 0
	n.Stats.FirmwareCycles.Add(c)
	return c
}

// txPump drives the transmit side: dequeue head, run firmware, then pay
// for the processor and serializer stages. Strictly one packet at a time,
// modeling the single LanAI processor shared by all duties. A host-bound
// packet must hold a flow-control credit for its destination; when the
// destination window is closed the pump stalls head-of-line — Myrinet's
// stop/go backpressure — and the backlog accumulates here, in the send
// queue, where the early-cancellation firmware can reach it.
//
// The firmware verdict and the wire departure time are both known at pump
// time, so a forwarded packet is announced to the fabric immediately: its
// departure is processor finish + serialization. The wire is always free by
// then — txPumping holds the next pump back until nicTxSerialized — so it
// is one timer, not a queueing server. Announcing ahead of the modeled
// stages is what gives a cross-shard receiver the full NIC-plus-wire
// latency as lookahead; the processor job (time and utilization accounting)
// and the serialization timer still run.
func (n *NIC) txPump() {
	if n.txPumping || n.txStalled || n.txFaultStalled || n.sendQ.Len() == 0 {
		return
	}
	head := *n.sendQ.Front()
	if gated(head.pkt.Kind) && head.pkt.DstNode >= 0 {
		if n.peer == nil {
			panic("nic: transmit before WirePeers")
		}
		if n.txCredit[head.pkt.DstNode] <= 0 {
			n.txStalled = true
			return
		}
	}
	// Doorbell coalescing: an eligible head with too few queued partners may
	// wait — within its flush horizon — for more traffic to the same
	// destination, so one pump flushes a whole frame. A zero horizon batches
	// only backlog that already exists.
	if n.cfg.BatchMax > 1 && !head.fromNIC && batchEligible(head.pkt) {
		if avail := n.batchAvailable(head.pkt.DstNode); avail < n.cfg.BatchMax && n.cfg.FlushHorizon > 0 {
			deadline := head.enqAt + n.cfg.FlushHorizon
			if n.eng.Now() < deadline {
				n.armFlush(deadline)
				return
			}
		}
	}
	n.txPumping = true
	entry := n.sendQ.Pop()

	verdict := VerdictForward
	if !entry.fromNIC {
		verdict = n.fw.OnHostSend(entry.pkt, apiImpl{n})
		// Batch assembly runs after the head has cleared firmware (so a
		// piggybacked GVT snapshot has already been extracted and scrubbed)
		// and substitutes a frame for the head in place; the frame then pays
		// the per-sub-message cycle charges assembly accrued.
		if verdict == VerdictForward && n.cfg.BatchMax > 1 && batchEligible(entry.pkt) {
			if frame := n.assembleBatch(entry.pkt); frame != nil {
				entry.pkt = frame
			}
		}
	}
	// txPumping covers both transmit stages (processor, then wire), so the
	// in-flight entry rides on the NIC struct instead of a closure.
	n.txEntry = entry
	n.txVerdict = verdict
	cost := n.cycles(SendCycles + n.takeCharge())
	finishProc := n.proc.SubmitArg(cost, nicTxProcessed, n)
	if verdict == VerdictForward {
		if gated(entry.pkt.Kind) && entry.pkt.DstNode >= 0 {
			// The credit is taken only when the packet actually travels;
			// it comes back once the destination host consumes it.
			n.txCredit[entry.pkt.DstNode]--
		}
		n.txDepart = finishProc + n.xfer.Time(entry.pkt.EncodedSize(), simnet.LinkBandwidth)
		n.fabric.Announce(n.node, entry.pkt, n.txDepart)
		// The packet is the fabric's now, and then its receiver's, which may
		// be rewriting it on another shard before the stages below finish.
		n.txEntry.pkt = nil
	}
}

// nicTxProcessed is the processor-stage completion for the transmit pump.
func nicTxProcessed(x interface{}) {
	n := x.(*NIC)
	switch n.txVerdict {
	case VerdictForward:
		n.eng.AtArg(n.txDepart, nicTxSerialized, n)
	case VerdictConsume, VerdictDrop:
		pkt := n.txEntry.pkt
		fromNIC := n.txEntry.fromNIC
		n.txEntry = outEntry{}
		if !fromNIC {
			if n.onHostDiscard != nil {
				n.onHostDiscard(pkt)
			}
			if n.txVerdict == VerdictDrop {
				n.recycleDead(pkt) // a consumed packet belongs to the firmware
			}
		}
		n.txDone()
	default:
		panic(fmt.Sprintf("nic: bad send verdict %v", n.txVerdict))
	}
}

// nicTxSerialized is the wire-stage completion for the transmit pump: the
// packet left the NIC (the fabric has been carrying its announced arrival
// since pump time).
func nicTxSerialized(x interface{}) {
	n := x.(*NIC)
	entry := n.txEntry
	n.txEntry = outEntry{}
	if entry.fromNIC {
		n.Stats.NICTx.Inc()
	} else {
		n.Stats.HostTx.Inc()
	}
	n.txDone()
}

// txDone re-arms the pump after a packet completes its NIC journey.
func (n *NIC) txDone() {
	n.txPumping = false
	n.txPump()
}

// nicWireReceive accepts a packet the fabric delivered to NIC x.
func nicWireReceive(x interface{}, pkt *proto.Packet) {
	n := x.(*NIC)
	n.recvQ.Push(pkt)
	n.rxPump()
}

// rxPump drives the receive side: run firmware, then DMA to the host.
func (n *NIC) rxPump() {
	if n.rxPumping || n.recvQ.Len() == 0 {
		return
	}
	n.rxPumping = true
	pkt := n.recvQ.Pop()

	// rxPumping covers the processor stage, so the in-flight packet rides on
	// the NIC struct instead of a closure.
	n.rxSlotSrc = -1
	if gated(pkt.Kind) && !pkt.WireDup {
		n.rxSlotSrc = pkt.SrcNode
	}
	if pkt.Kind == proto.KindBatch {
		n.expandBatch(pkt)
		n.rxVerdict = VerdictForward
	} else {
		n.rxVerdict = n.fw.OnWireReceive(pkt, apiImpl{n})
	}
	switch n.rxVerdict {
	case VerdictForward:
		n.rxPkt = pkt
	case VerdictConsume:
		n.pool.Release(pkt)
	}
	cost := n.cycles(RecvCycles + n.takeCharge())
	n.proc.SubmitArg(cost, nicRxProcessed, n)
}

// nicRxProcessed is the processor-stage completion for the receive pump.
// A packet that occupies a buffer slot (rxSlotSrc) owes its sender a
// credit: for host-bound deliveries the credit returns when the host
// consumes the packet (HostConsumed); for packets the firmware consumes or
// drops on the NIC, the slot frees right here.
func nicRxProcessed(x interface{}) {
	n := x.(*NIC)
	pkt := n.rxPkt
	n.rxPkt = nil
	switch n.rxVerdict {
	case VerdictForward:
		n.Stats.RxDelivered.Inc()
		if n.deliverToHost == nil {
			panic("nic: receive before Wire")
		}
		if n.rxSlotSrc >= 0 {
			n.rxSrcQ.Push(n.rxSlotSrc)
		}
		n.deliverToHost(n.host, pkt, n.rxSlotSrc >= 0)
	case VerdictConsume, VerdictDrop:
		if n.rxVerdict == VerdictConsume {
			n.Stats.RxConsumed.Inc()
		}
		if n.rxSlotSrc >= 0 {
			n.returnCredit(n.rxSlotSrc)
		}
	default:
		panic(fmt.Sprintf("nic: bad receive verdict %v", n.rxVerdict))
	}
	n.rxPumping = false
	n.rxPump()
}

// Doorbell is called (through the modeled bus) when the host rings the NIC
// after a shared-window update.
func (n *NIC) Doorbell() {
	n.fw.OnDoorbell(apiImpl{n})
	cost := n.cycles(n.takeCharge())
	n.proc.SubmitArg(cost, nil, nil)
}

// recycleDead returns a host packet that dies on the NIC — discarded
// instead of sent, or folded into a batch frame — to the packet pool. The
// destination host releases a packet that travels; one that dies here has
// no other way back, and under heavy cancellation most packets die here.
// Only event-like packets come back this way: no firmware discards a
// credit message, and a GVT control packet belongs to the manager that
// built it.
func (n *NIC) recycleDead(pkt *proto.Packet) {
	if pkt.IsEventLike() {
		n.pool.Release(pkt)
	}
}

// apiImpl implements API as a view over the NIC. A distinct type keeps the
// capability surface explicit.
type apiImpl struct{ n *NIC }

func (a apiImpl) Node() int     { return a.n.node }
func (a apiImpl) NumNodes() int { return a.n.fabric.NumPorts() }
func (a apiImpl) Charge(c int64) {
	if c < 0 {
		panic("nic: negative cycle charge")
	}
	a.n.pendingCycles += c
}

func (a apiImpl) SendQueue(visit func(*proto.Packet)) {
	for _, e := range a.n.sendQ.Live() {
		visit(e.pkt)
	}
}

func (a apiImpl) SendQueueLen() int { return a.n.sendQ.Len() }

func (a apiImpl) RemoveFromSendQueue(pred func(*proto.Packet) bool) int {
	n := a.n
	live := n.sendQ.Live()
	kept := live[:0]
	for _, e := range live {
		//nicwarp:alloc firmware-supplied predicate; hot callers bind it once (CancelFirmware.scanPred)
		if e.fromNIC || !pred(e.pkt) {
			kept = append(kept, e) //nicwarp:alloc aliases live[:0], never exceeds its capacity
			continue
		}
		if n.onHostDiscard != nil {
			n.onHostDiscard(e.pkt) //nicwarp:alloc invariant-checker observer, installed only under CheckInvariants
		}
		n.recycleDead(e.pkt)
	}
	removed := len(live) - len(kept)
	n.sendQ.DropTail(removed)
	return removed
}

func (a apiImpl) Packet() *proto.Packet { return a.n.pool.Packet() }

func (a apiImpl) Inject(pkt *proto.Packet) {
	if pkt == nil {
		panic("nic: Inject nil packet")
	}
	a.n.enqueue(outEntry{pkt: pkt, fromNIC: true})
}

func (a apiImpl) Shared() *SharedWindow { return &a.n.shared }

func (a apiImpl) NotifyHost(tag NotifyTag) {
	if a.n.notifyHost == nil {
		panic("nic: NotifyHost before Wire")
	}
	a.n.notifyHost(a.n.host, tag) //nicwarp:alloc wired by the cluster assembly (core's nodeNICNotify, closure-free); opaque to the analyzer
}

func (a apiImpl) Stats() *Stats { return &a.n.Stats }

// frameHeaderCycles is the processor work to classify an inbound batch
// frame before expanding it: one header check, what firmware pays to
// classify any packet (firmware.CyclesHeaderCheck, which this package
// cannot import; firmware's TestBatchFrameCyclePrice pins the two equal).
const frameHeaderCycles = 10

// assembleBatch runs after the dequeued head cleared firmware with a
// Forward verdict: it gathers the queued same-destination partners, passes
// each through the firmware's OnHostSend exactly once — the white-send GVT
// count, piggyback extraction and the early-cancel drop predicate all see
// the same per-packet traffic as an unbatched run — and folds the
// survivors behind one header, charging PerSubMsgCycles per folded message.
// A partner the firmware refuses leaves a hole at its sequence number (the
// receiver's BIP endpoint records it through the ordinary missing-range
// machinery; the firmware booked the drop) and is observed as a discard
// like any send-side drop. Every partner is gathered before the first
// partner hook runs: a hook may scan the send queue, and a packet about to
// ride in this frame must not be there. Returns nil when no partner is
// available, leaving the head to travel as an ordinary packet.
func (n *NIC) assembleBatch(head *proto.Packet) *proto.Packet {
	partners := n.gatherBatch(head.DstNode, n.cfg.BatchMax-1)
	if len(partners) == 0 {
		return nil
	}
	frame := n.pool.Frame(n.cfg.BatchMax)
	frame.Kind = proto.KindBatch
	frame.Seq = head.Seq
	frame.SrcNode = head.SrcNode
	frame.DstNode = head.DstNode
	frame.Credits = head.Credits
	frame.ColorEpoch = head.ColorEpoch
	frame.PiggyAntiEpoch = head.PiggyAntiEpoch
	frame.AppendSub(head)
	n.recycleDead(head)
	for _, p := range partners {
		if v := n.fw.OnHostSend(p, apiImpl{n}); v != VerdictForward {
			if n.onHostDiscard != nil {
				n.onHostDiscard(p)
			}
			n.recycleDead(p)
			continue
		}
		// Flow-control state rides once per frame: fold any credit return
		// the partner carried into the header.
		frame.Credits += p.Credits
		frame.PiggyAntiEpoch = max(frame.PiggyAntiEpoch, p.PiggyAntiEpoch)
		frame.AppendSub(p)
		n.recycleDead(p)
	}
	clear(partners)
	n.batch = partners[:0]
	n.pendingCycles += PerSubMsgCycles * int64(len(frame.Subs))
	n.Stats.BatchFrames.Inc()
	n.Stats.BatchSubs.Add(int64(len(frame.Subs)))
	return frame
}

// expandBatch is assembleBatch's receive half: the frame pays one header
// check plus PerSubMsgCycles per sub-message, and the firmware's
// OnWireReceive sees each sub-message as the solo packet it was folded
// from — in particular, each folded anti-message is numbered and opens its
// cancellation window exactly as a solo anti would. The frame itself is
// always forwarded to the host, which unpacks it the same way.
func (n *NIC) expandBatch(frame *proto.Packet) {
	n.pendingCycles += frameHeaderCycles + PerSubMsgCycles*int64(len(frame.Subs))
	for i := range frame.Subs {
		frame.SubPacket(i, &n.rxSub)
		if v := n.fw.OnWireReceive(&n.rxSub, apiImpl{n}); v != VerdictForward {
			// A frame travels and is delivered as a unit; no firmware
			// consumes event-like traffic on receive, and a partial frame
			// consumption has no meaning here.
			panic(fmt.Sprintf("nic: firmware %T returned %v for batched sub-message", n.fw, v))
		}
	}
	n.rxSub = proto.Packet{}
}

// gatherBatch extracts from the send queue, in order, up to max host
// packets bound for dst that may join the current frame. The gather stops
// at the first same-destination host packet that is not batch eligible —
// that packet carries state (a credit reply, a GVT piggyback) that must
// dequeue on its own, and stopping there keeps the gathered sequence
// numbers a contiguous prefix of the per-destination BIP stream.
// Other-destination and NIC-originated entries are skipped and retained.
// The returned slice is on n.batch's array, which assembleBatch nils and
// keeps for the next frame. Unlike RemoveFromSendQueue, gathered packets
// are NOT reported to the host discard observer: their content travels on
// inside the frame.
//
//nicwarp:hotpath batch gather, executed once per assembled frame
func (n *NIC) gatherBatch(dst int32, max int) []*proto.Packet {
	out := n.batch[:0]
	live := n.sendQ.Live()
	kept := live[:0]
	stopped := false
	for _, e := range live {
		if !stopped && !e.fromNIC && e.pkt.DstNode == dst && len(out) < max {
			if batchEligible(e.pkt) {
				out = append(out, e.pkt) //nicwarp:alloc grows to at most BatchMax-1 entries, then reused across the run
				continue
			}
			stopped = true
		}
		kept = append(kept, e) //nicwarp:alloc aliases live[:0], never exceeds its capacity
	}
	n.sendQ.DropTail(len(live) - len(kept))
	return out
}
