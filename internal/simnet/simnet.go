// Package simnet models the cluster interconnect: a Myrinet-like cut-through
// switch with per-output-port serialization and point-to-point links.
//
// The model captures the properties the paper's optimizations interact with:
//
//   - finite link bandwidth (1.2 Gb/s in the paper's cluster), so messages
//     queue behind each other and a backlog can form in the NIC send path;
//   - per-path FIFO delivery, which BIP's sequence numbering and the
//     early-cancellation correctness argument both rely on;
//   - a fixed switch traversal latency.
//
// The fabric is reliable by default: it never drops or reorders packets,
// so all loss in the system is *deliberate* (early cancellation at the
// NIC). A Tap (see SetTap) can override that on a per-packet basis — the
// fault-injection plane in internal/fault uses it to model lossy, skewed
// or degraded links while keeping every decision deterministic.
//
// The fabric is the shard boundary of a partitioned run: each port lives
// on the engine of the NIC it connects (its shard), and a packet's entire
// wire fate — tap decisions, retransmissions, duplicate clones — is
// resolved on the *sender's* engine when the send is announced, before
// anything crosses shards. Only the fully decided arrival event travels to
// the destination engine, at a time bounded below by LinkLatency +
// SwitchLatency past the announcement: that bound is the fabric's share of
// the cross-shard lookahead contract.
package simnet

import (
	"fmt"
	"unsafe"

	"nicwarp/internal/dense"
	"nicwarp/internal/des"
	"nicwarp/internal/proto"
	"nicwarp/internal/vtime"
)

// Topology selects the switching structure between the ports. The zero
// value is the paper's single crossbar, so existing configurations (and
// their digests' meaning) are unchanged.
type Topology uint8

const (
	// TopoCrossbar is the paper's single contention-free switch: every
	// pair of ports is one switch traversal apart.
	TopoCrossbar Topology = iota
	// TopoFatTree is a three-level folded-Clos fat-tree built from
	// switches of Radix down-links: nodes sharing an edge switch are one
	// hop apart, nodes sharing a pod (Radix edge switches) cross an
	// aggregation stage, and inter-pod traffic crosses the core.
	TopoFatTree

	numTopologies // sentinel
)

// String implements fmt.Stringer with the spellings core.ParseTopology
// accepts.
func (t Topology) String() string {
	switch t {
	case TopoCrossbar:
		return "crossbar"
	case TopoFatTree:
		return "fattree"
	default:
		return fmt.Sprintf("Topology(%d)", uint8(t))
	}
}

// TopologyNames returns the spellings of the valid topologies, in enum
// order.
func TopologyNames() []string {
	names := make([]string, numTopologies)
	for t := range names {
		names[t] = Topology(t).String()
	}
	return names
}

// The paper's Myrinet fabric timing. Every run uses it; varying one is a
// model change with its own ablation, not a Config field.
const (
	// LinkBandwidth is the per-link bandwidth in bytes per second (1.2 Gb/s).
	LinkBandwidth = 150e6
	// LinkLatency is the one-way propagation delay of a link.
	LinkLatency = 500 * vtime.Nanosecond
	// SwitchLatency is the fixed routing/arbitration delay inside the
	// switch, per packet.
	SwitchLatency = 300 * vtime.Nanosecond
	// MinTransitTime is the smallest possible announce-to-arrival delay of
	// the fabric: the floor used when sizing the cross-shard window.
	// Output-port serialization only adds to it.
	MinTransitTime = LinkLatency + SwitchLatency
)

// Config selects the switching structure. The zero value is complete: the
// paper's single crossbar.
type Config struct {
	// Topology selects the switching structure. The zero value models the
	// paper's single crossbar; multi-stage topologies add deterministic
	// per-stage latency and per-stage store-and-forward serialization on
	// top of the crossbar path (see ExtraStages).
	Topology Topology
	// Radix is the stage radix of the fat-tree: down-links per edge
	// switch. Zero picks DefaultRadix. Ignored by the crossbar.
	Radix int
}

// DefaultRadix is the stage radix used when Config.Radix is zero: eight
// matches the paper's switch and keeps an 8-node cluster inside a single
// edge switch on every topology.
const DefaultRadix = 8

// radix returns the effective stage radix.
func (c Config) radix() int {
	if c.Radix <= 0 {
		return DefaultRadix
	}
	return c.Radix
}

// ExtraStages returns the number of switching stages the src->dst path
// crosses beyond the single crossbar traversal the base fabric model
// already charges. Each extra stage costs one SwitchLatency, one
// LinkLatency and one store-and-forward serialization of the packet (the
// deterministic stand-in for interior contention; see the package comment
// and DESIGN.md §12). The result depends only on (topology, radix, src,
// dst), so the sender's engine can resolve the whole path at announce
// time — the shard-safety contract of the fabric.
func (c Config) ExtraStages(src, dst int) int {
	r := c.radix()
	switch {
	case c.Topology != TopoFatTree, src/r == dst/r: // crossbar, or same edge switch
		return 0
	case src/(r*r) == dst/(r*r): // same pod: edge-agg-edge
		return 2
	default: // inter-pod: edge-agg-core-agg-edge
		return 4
	}
}

// LastStageFanIn returns the number of sources whose minimal paths can
// contend for one destination's last-hop link: the topology fan-in the
// NIC's per-destination credit windows are sized from. On the crossbar
// every other port contends; on the fat-tree the last hop is fed by a
// single edge switch, so the concurrent set is bounded by the stage radix
// rather than the cluster size.
func (c Config) LastStageFanIn(n int) int {
	if n <= 1 {
		return 1
	}
	// On the fat-tree: the r-1 local peers behind the same edge switch plus
	// one up-link feeding remote traffic in.
	if r := c.radix(); c.Topology == TopoFatTree && r < n-1 {
		return r
	}
	return n - 1
}

// DefaultConfig returns the paper's fabric, the single crossbar: the zero
// Config.
func DefaultConfig() Config { return Config{} }

// Fabric is an N-port switch. Each port connects one NIC and lives on that
// NIC's engine; senders announce departures and the fabric plants the
// decided arrivals on the destination engines.
type Fabric struct {
	cfg   Config
	ports []port
	tap   Tap
}

// Tap observes every packet as its wire fate is decided and can alter it.
// Exactly one tap can be installed per fabric; a nil tap (the default)
// leaves the fabric perfectly reliable.
type Tap interface {
	// OnRoute is called once per unicast fate decision (broadcasts are
	// expanded first, so each replica is seen individually; retransmissions
	// and duplicate clones are re-offered). The returned decision is
	// applied by the fabric. Calls for a given srcPort always come from
	// that port's engine, in deterministic order; calls for different
	// source ports may be concurrent when the run is sharded, so per-source
	// tap state must be keyed by srcPort.
	OnRoute(srcPort, dstPort int, pkt *proto.Packet) TapDecision
}

// TapDecision is what a Tap wants done with one packet.
type TapDecision struct {
	// Drop removes the packet from this routing attempt. If Redeliver is
	// positive the same packet is re-offered to the fabric after that
	// delay (a link-level retransmission: the tap rolls again); if zero
	// the packet is lost permanently.
	Drop      bool
	Redeliver vtime.ModelTime
	// ExtraDelay is added to the switch traversal before output-port
	// contention, so a delayed packet can genuinely be overtaken.
	ExtraDelay vtime.ModelTime
	// Dup injects a clone of the packet after DupDelay. The clone is
	// routed independently (and is itself subject to the tap).
	Dup      bool
	DupDelay vtime.ModelTime
}

// SetTap installs t as the fabric's tap. Call before traffic flows.
func (f *Fabric) SetTap(t Tap) { f.tap = t }

// port is one switch port, padded to a multiple of 64 bytes: ports live in
// one slice, and a port is written only by its own engine's goroutine, so
// two shards' neighbouring ports must not share a cache line.
type port struct {
	_ [(64 - unsafe.Sizeof(portFields{})%64) % 64]byte // first: a trailing zero-size field would add a word
	portFields
}

// portFields are a port's contents: the engine, lane and packet pool of
// the NIC it connects, the delivery callback, and the output-port
// serializer.
type portFields struct {
	eng     *des.Engine
	lane    uint32
	pool    *proto.Pool // where the copies of packets this port sends come from
	deliver func(arg interface{}, pkt *proto.Packet)
	arg     interface{}
	out     des.Resource // output-port serializer (switch -> NIC link)
	// xfer memoizes link serialization times. Both its users — launch for
	// the source port, portArrival for the destination — run on this port's
	// engine.
	xfer vtime.TransferMemo
}

// NewFabric creates a fabric with n unattached ports.
func NewFabric(cfg Config, n int) *Fabric {
	f := new(Fabric)
	f.Init(cfg, n)
	return f
}

// Init sets f up as NewFabric does, reusing the port array of an earlier
// run on f when it holds n ports.
func (f *Fabric) Init(cfg Config, n int) {
	if n <= 0 {
		panic("simnet: fabric needs at least one port")
	}
	*f = Fabric{cfg: cfg, ports: dense.Reuse(f.ports, n)}
}

// NumPorts returns the number of ports.
func (f *Fabric) NumPorts() int { return len(f.ports) }

// FanIn returns the topology's last-stage fan-in toward any one port (see
// Config.LastStageFanIn): the number of senders the NICs size their
// per-destination credit windows against.
func (f *Fabric) FanIn() int { return f.cfg.LastStageFanIn(len(f.ports)) }

// Attach connects a port to the NIC it serves: the engine (shard) and lane
// the NIC lives on, and the callback invoked when a packet fully arrives.
// Must be called for every port before traffic flows.
func (f *Fabric) Attach(portID int, eng *des.Engine, lane uint32, deliver func(*proto.Packet)) {
	if deliver == nil {
		panic("simnet: nil deliver callback")
	}
	f.AttachArg(portID, eng, lane, nil, callDeliver, deliver)
}

// callDeliver is the threaded form of an Attach callback.
func callDeliver(fn interface{}, pkt *proto.Packet) { fn.(func(*proto.Packet))(pkt) }

// AttachArg is Attach with the callback threaded through arg, as
// des.Engine.AtArg threads its argument, so a receiver needs no closure.
// The broadcast replicas and fault-plane duplicates of packets the port
// sends come from pool, the engine's (the heap when nil).
func (f *Fabric) AttachArg(portID int, eng *des.Engine, lane uint32, pool *proto.Pool, deliver func(arg interface{}, pkt *proto.Packet), arg interface{}) {
	if eng == nil {
		panic("simnet: nil engine")
	}
	p := &f.ports[portID]
	p.eng, p.lane, p.pool, p.deliver, p.arg = eng, lane, pool, deliver, arg
	p.out.Init(eng, "switch-port")
}

// Announce accepts a send from the NIC at srcPort that will finish
// serializing onto the wire at model time depart (>= the port engine's
// now). The packet's complete wire fate is decided immediately on the
// caller's engine; surviving arrivals are planted on their destination
// engines at depart + LinkLatency + SwitchLatency (+ tap delays), where
// they contend for the output port and cross the final link.
//
// A packet with DstNode == -1 is a broadcast and is replicated to every
// port except the source, the way the paper's NIC-GVT firmware broadcasts
// the final GVT value.
func (f *Fabric) Announce(srcPort int, pkt *proto.Packet, depart vtime.ModelTime) {
	if pkt == nil {
		panic("simnet: nil packet")
	}
	if srcPort < 0 || srcPort >= len(f.ports) {
		panic(fmt.Sprintf("simnet: bad source port %d", srcPort))
	}
	src := &f.ports[srcPort]
	if src.eng == nil {
		panic(fmt.Sprintf("simnet: port %d is not attached", srcPort))
	}
	if depart < src.eng.Now() {
		panic(fmt.Sprintf("simnet: departure %v is before now %v", depart, src.eng.Now()))
	}
	if pkt.DstNode == -1 {
		// Replicas come from the port's pool; the last is the packet itself.
		last := len(f.ports) - 1
		if last == srcPort {
			last--
		}
		for i := range f.ports {
			if i == srcPort {
				continue
			}
			replica := pkt
			if i != last {
				replica = src.pool.Clone(pkt)
			}
			replica.DstNode = int32(i)
			f.launch(srcPort, i, replica, depart)
		}
		return
	}
	dst := int(pkt.DstNode)
	if dst < 0 || dst >= len(f.ports) {
		panic(fmt.Sprintf("simnet: bad destination node %d", dst))
	}
	f.launch(srcPort, dst, pkt, depart)
}

// launch resolves the tap fate chain for one unicast replica and, if the
// packet survives, plants its switch-arrival event on the destination
// engine. Retransmissions loop here (the tap rolls again per attempt, with
// the retransmission delay pushing departure back); duplicate clones
// recurse as independent attempts. All randomness is consumed on the
// source engine at announce time, so the decision sequence per source port
// is deterministic regardless of sharding.
func (f *Fabric) launch(srcPort, dstPort int, pkt *proto.Packet, depart vtime.ModelTime) {
	var extra vtime.ModelTime
	for f.tap != nil {
		d := f.tap.OnRoute(srcPort, dstPort, pkt)
		if d.Dup {
			c := f.ports[srcPort].pool.Clone(pkt)
			c.WireDup = true // holds no rx slot at the receiver
			f.launch(srcPort, dstPort, c, depart+d.DupDelay)
		}
		if d.Drop {
			if d.Redeliver > 0 {
				depart += d.Redeliver
				continue
			}
			return // lost permanently
		}
		extra = d.ExtraDelay
		break
	}
	src := &f.ports[srcPort]
	dst := &f.ports[dstPort]
	if dst.eng == nil {
		panic(fmt.Sprintf("simnet: port %d has no receiver", dstPort))
	}
	// Propagation to the switch plus routing latency; then the packet
	// contends for the destination output port on the destination engine.
	at := depart + MinTransitTime + extra
	if stages := f.cfg.ExtraStages(srcPort, dstPort); stages > 0 {
		perStage := MinTransitTime + src.xfer.Time(pkt.EncodedSize(), LinkBandwidth)
		at += vtime.ModelTime(stages) * perStage
	}
	src.eng.AtCross(dst.eng, dst.lane, at, portArrival, dst, pkt)
}

// portArrival: the packet reached the switch side of the destination's
// output port; contend for the serializer. Runs on the destination engine.
func portArrival(a, b interface{}) {
	p := a.(*port)
	pkt := b.(*proto.Packet)
	serialize := p.xfer.Time(pkt.EncodedSize(), LinkBandwidth)
	p.out.SubmitArg2(serialize, portSerialized, p, pkt)
}

// portSerialized: the output port finished serializing; propagate down the
// final link to the destination NIC. The serializer job was submitted on
// p.lane, so its completion runs there and the hop stays on the port's own
// lane and engine, where AtCross asks for no lookahead.
func portSerialized(a, b interface{}) {
	p := a.(*port)
	p.eng.AtCross(p.eng, p.lane, p.eng.Now()+LinkLatency, portDeliver, p, b)
}

// portDeliver: the packet fully arrived at the destination NIC.
func portDeliver(a, b interface{}) {
	p := a.(*port)
	p.deliver(p.arg, b.(*proto.Packet))
}
