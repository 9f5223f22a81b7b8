package fault

import (
	"nicwarp/internal/des"
	"nicwarp/internal/proto"
	"nicwarp/internal/rng"
	"nicwarp/internal/simnet"
	"nicwarp/internal/stats"
	"nicwarp/internal/vtime"
)

// Component bases for rng.NewFor streams. Wire, ring and setup decisions
// draw from disjoint streams so the coin-flip sequence on one port never
// shifts when an unrelated knob is toggled.
const (
	componentDegrade = 0x0F00_0001
	componentWire    = 0x0F01_0000 // + source port
	componentRing    = 0x0F02_0000 // + node
)

// RingCtrl is the slice of the NIC surface the ring-exhaustion faults
// drive. *nic.NIC implements it.
type RingCtrl interface {
	// FaultHoldRx occupies up to k receive-ring slots, returning how many
	// were actually taken (never more than the ring has).
	FaultHoldRx(k int) int
	// FaultReleaseRx releases slots previously taken by FaultHoldRx.
	FaultReleaseRx(k int)
	// SetTxFaultStall freezes (true) or resumes (false) the transmit pump.
	SetTxFaultStall(v bool)
}

// wireState is the per-source-port fault state. OnRoute calls for a given
// source port always come from that port's shard engine, so keying every
// mutable decision input and counter by source port is what keeps the tap
// both race-free and deterministic under sharding.
type wireState struct {
	rng      rng.Source
	scratch  []byte        // wire image buffer for the corruption model
	injected stats.Counter // fault decisions that bit: one per degrade, loss, corruption, drop, dup or delay
}

// ringState is the per-node episode driver state. Episode timers live on
// the node's own shard engine so holding or stalling a ring never crosses
// shard boundaries.
type ringState struct {
	ctrl RingCtrl
	eng  *des.Engine
	rng  rng.Source

	injected stats.Counter // receive-ring slots held plus transmit stalls
}

// Plane is the runtime fault injector for one cluster: it implements
// simnet.Tap for wire faults and drives NIC ring-exhaustion episodes.
// Every decision is drawn from streams seeded by the Plan, so the same
// Plan replays byte-identically — at any shard count, because each stream
// is consumed by exactly one shard.
type Plane struct {
	spec     Spec
	seed     uint64
	wire     []wireState // per source port
	degraded []bool      // ports with a constant extra delay

	rings []ringState
	busy  func(node int) bool
}

// NewPlane builds the fault plane for a cluster with numPorts NICs. The
// plan must already be validated.
func NewPlane(plan Plan, numPorts int) *Plane {
	p := &Plane{
		spec: plan.Spec,
		seed: plan.Seed,
		wire: make([]wireState, numPorts),
	}
	for i := range p.wire {
		p.wire[i].rng = rng.NewFor(plan.Seed, componentWire+uint64(i))
	}
	if k := plan.Spec.DegradeLinks; k > 0 {
		if k > numPorts {
			k = numPorts
		}
		p.degraded = make([]bool, numPorts)
		r := rng.NewFor(plan.Seed, componentDegrade)
		for picked := 0; picked < k; {
			i := r.Intn(numPorts)
			if !p.degraded[i] {
				p.degraded[i] = true
				picked++
			}
		}
	}
	return p
}

// OnRoute implements simnet.Tap: one fate decision per routing attempt,
// drawn entirely from the source port's own stream and counted on the
// source port's own counters (see wireState).
//
// NIC-originated control packets (Seq == 0: GVT tokens and broadcasts)
// are exempt from the random faults. The NIC-GVT token protocol assumes
// the paper's reliable fabric — duplicating a token or reordering a GVT
// broadcast against a later one has no physical counterpart and only
// crashes the model's own bookkeeping, not the protocol under test.
// Constant link degradation still applies to them: it preserves per-path
// FIFO order, which is all the control plane needs.
func (p *Plane) OnRoute(srcPort, dstPort int, pkt *proto.Packet) simnet.TapDecision {
	var d simnet.TapDecision
	s := &p.spec
	w := &p.wire[srcPort]
	if p.degraded != nil && (p.degraded[srcPort] || p.degraded[dstPort]) {
		d.ExtraDelay += s.DegradeDelay
		w.injected.Inc()
	}
	if pkt.Seq == 0 {
		return d
	}
	r := &w.rng
	if s.TrueLossProb > 0 && r.Float64() < s.TrueLossProb {
		w.injected.Inc()
		d.Drop = true
		d.Redeliver = 0
		return d
	}
	if s.CorruptProb > 0 && r.Float64() < s.CorruptProb {
		if w.corruptionDetected(pkt) {
			w.injected.Inc()
			d.Drop = true
			d.Redeliver = s.RetxDelay
			return d
		}
		w.injected.Inc()
	}
	if s.DropProb > 0 && r.Float64() < s.DropProb {
		w.injected.Inc()
		d.Drop = true
		d.Redeliver = s.RetxDelay
		return d
	}
	if s.DupProb > 0 && r.Float64() < s.DupProb {
		w.injected.Inc()
		d.Dup = true
		d.DupDelay = s.DupDelay
	}
	if s.DelayProb > 0 && r.Float64() < s.DelayProb {
		w.injected.Inc()
		d.ExtraDelay += vtime.ModelTime(1 + r.Int63n(int64(s.DelayMax)))
	}
	return d
}

// corruptionDetected models the link CRC: take the packet's wire image,
// flip one seeded bit, and ask whether the checksum changed. With FNV-1a
// a single-bit flip is always caught, but the shape keeps the model
// honest: detection is a property of the code, not an assumption.
func (w *wireState) corruptionDetected(pkt *proto.Packet) bool {
	w.scratch = pkt.MarshalAppend(w.scratch[:0])
	sum := proto.Checksum(w.scratch)
	bit := w.rng.Intn(len(w.scratch) * 8)
	w.scratch[bit/8] ^= 1 << (bit % 8)
	return proto.Checksum(w.scratch) != sum
}

// InstallRings hands the plane the per-node ring controls, the shard
// engine each node lives on, and a per-node busy probe. The probe must
// report real model work only (kernel, CPU, flow control of that node) —
// never eng.Pending(), which would count the plane's own timers and
// livelock the run at the horizon — and must not read state owned by
// other shards.
func (p *Plane) InstallRings(rings []RingCtrl, engs []*des.Engine, busy func(node int) bool) {
	p.busy = busy
	p.rings = make([]ringState, len(rings))
	for i := range rings {
		p.rings[i] = ringState{
			ctrl: rings[i],
			eng:  engs[i],
			rng:  rng.NewFor(p.seed, componentRing+uint64(i)),
		}
	}
}

// Start arms the first ring-exhaustion episodes. Episodes re-arm only
// while the node's busy probe is true, so once the model quiesces the
// fault timers drain and the event heaps empty before the horizon. The
// boot-time arms run under each node's lane (re-arms from inside an
// episode inherit the episode event's lane) so the timer tie-break order
// is the same at any shard count.
func (p *Plane) Start() {
	if p.rings == nil {
		return
	}
	for i := range p.rings {
		p.rings[i].eng.SetLane(uint32(i))
		if p.spec.RxHoldEvery > 0 {
			p.armRx(i)
		}
		if p.spec.TxStallEvery > 0 {
			p.armTx(i)
		}
	}
}

// jitter spreads episode firings across (period/2, 3*period/2] so nodes
// don't stall in lockstep.
func jitter(r *rng.Source, period vtime.ModelTime) vtime.ModelTime {
	return period/2 + vtime.ModelTime(1+r.Int63n(int64(period)))
}

func (p *Plane) armRx(i int) {
	ring := &p.rings[i]
	ring.eng.AtArg(ring.eng.Now()+jitter(&ring.rng, p.spec.RxHoldEvery), func(interface{}) { p.fireRx(i) }, nil)
}

func (p *Plane) fireRx(i int) {
	if !p.busy(i) {
		return
	}
	ring := &p.rings[i]
	if held := ring.ctrl.FaultHoldRx(p.spec.RxHoldSlots); held > 0 {
		ring.injected.Add(int64(held))
		ctrl := ring.ctrl
		ring.eng.AtArg(ring.eng.Now()+p.spec.RxHoldFor, func(interface{}) { ctrl.FaultReleaseRx(held) }, nil)
	}
	p.armRx(i)
}

func (p *Plane) armTx(i int) {
	ring := &p.rings[i]
	ring.eng.AtArg(ring.eng.Now()+jitter(&ring.rng, p.spec.TxStallEvery), func(interface{}) { p.fireTx(i) }, nil)
}

func (p *Plane) fireTx(i int) {
	if !p.busy(i) {
		return
	}
	ring := &p.rings[i]
	ring.injected.Inc()
	ctrl := ring.ctrl
	ctrl.SetTxFaultStall(true)
	ring.eng.AtArg(ring.eng.Now()+p.spec.TxStallFor, func(interface{}) { ctrl.SetTxFaultStall(false) }, nil)
	p.armTx(i)
}

// Injected totals the fault decisions that bit, over every port and node:
// wire faults per routing attempt, receive-ring slots held, transmit stalls.
// The stress harness uses it to assert a scenario bit on a given workload.
// Call after the run quiesces.
func (p *Plane) Injected() int64 {
	var n int64
	for i := range p.wire {
		n += p.wire[i].injected.Value()
	}
	for i := range p.rings {
		n += p.rings[i].injected.Value()
	}
	return n
}
