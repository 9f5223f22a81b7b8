// Package core assembles the full system: eight (or N) modeled nodes — host
// CPU, I/O bus, programmable NIC — connected by a Myrinet-like switch, each
// running a Time Warp kernel under a GVT manager, with the MPICH/BIP
// protocol stack in between. It is the reproduction's equivalent of the
// paper's testbed: WARPED over MPICH over BIP over Myrinet with
// reprogrammable LanAI firmware.
//
// The package owns the glue the paper describes on the host side of both
// optimizations: anti-message suppression against the NIC drop buffer, the
// processed-anti-epoch piggyback, white/red colour hooks, and the charging
// of every kernel action to the host CPU model.
package core

import (
	"fmt"
	"slices"
	"strings"

	"nicwarp/internal/bip"
	"nicwarp/internal/dense"
	"nicwarp/internal/des"
	"nicwarp/internal/fault"
	"nicwarp/internal/gvt"
	"nicwarp/internal/hostmodel"
	"nicwarp/internal/invariant"
	"nicwarp/internal/iobus"
	"nicwarp/internal/mpich"
	"nicwarp/internal/nic"
	"nicwarp/internal/nic/firmware"
	"nicwarp/internal/proto"
	"nicwarp/internal/simnet"
	"nicwarp/internal/stats"
	"nicwarp/internal/timewarp"
	"nicwarp/internal/vtime"
)

// GVTMode selects the GVT implementation.
type GVTMode int

// GVT modes.
const (
	// GVTHostMattern is WARPED's host-resident Mattern algorithm (the
	// paper's baseline).
	GVTHostMattern GVTMode = iota
	// GVTNIC is the paper's NIC-level GVT.
	GVTNIC
	// GVTPGVT is the pGVT-style centralized algorithm, WARPED's other GVT
	// implementation, included as the high-overhead baseline the paper
	// rejects ("we use Mattern's algorithm because it has a lower
	// overhead").
	GVTPGVT
	// GVTNICTree is the tree-reduction variant of the NIC-level GVT: the
	// NICs fold subtree partial sums up a static k-ary tree and broadcast
	// the committed value back down, converging in O(log n) link hops
	// instead of the ring's O(n) circulation (firmware.NewTreeGVT).
	GVTNICTree
)

// String implements fmt.Stringer.
func (m GVTMode) String() string {
	switch m {
	case GVTNIC:
		return "nic-gvt"
	case GVTPGVT:
		return "pgvt"
	case GVTNICTree:
		return "nic-tree"
	default:
		return "mattern"
	}
}

// App builds a simulation model for a cluster run.
type App interface {
	// Name identifies the application ("raid", "police", "phold").
	Name() string
	// Build returns the simulation objects and their LP placement. It must
	// be deterministic in (numLPs, seed) and must return fresh objects on
	// every call (runs mutate them).
	Build(numLPs int, seed uint64) (objs map[timewarp.ObjectID]timewarp.Object, place func(timewarp.ObjectID) int)
}

// Grained is an optional App extension: models with their own computation
// granularity override the cost table's default EventGrain. The paper's
// POLICE model is a fine-grained telecommunications workload whose events
// are message-handling stubs; RAID events carry more computation.
type Grained interface {
	EventGrain() vtime.ModelTime
}

// Config describes one cluster experiment.
type Config struct {
	// App is the simulation model to run.
	App App
	// Nodes is the cluster size (LP count); the paper's testbed has 8.
	Nodes int
	// Seed drives all model randomness.
	Seed uint64

	// GVT selects the GVT implementation; GVTPeriod is GVT_COUNT (a new
	// computation every GVTPeriod processed events at the root).
	GVT       GVTMode
	GVTPeriod int
	// GVTFallbackDelay overrides the NIC-GVT handshake piggyback patience
	// (zero keeps gvt.DefaultFallbackDelay).
	GVTFallbackDelay vtime.ModelTime

	// EarlyCancel installs the early-cancellation firmware.
	EarlyCancel bool
	// DropBufferCap overrides the per-object dropped-ID buffer size
	// (paper: 10). Zero keeps the default.
	DropBufferCap int

	// Cancellation selects the kernel cancellation policy. The paper (and
	// the early-cancellation correctness argument) uses Aggressive.
	Cancellation timewarp.CancellationPolicy

	// Hardware model parameters; zero values take defaults.
	Costs hostmodel.CostTable
	NIC   nic.Config
	Net   simnet.Config
	Bus   iobus.Config
	Flow  mpich.Config

	// MaxModelTime aborts runs that fail to quiesce. Zero means a generous
	// default.
	MaxModelTime vtime.ModelTime

	// VerifyOracle additionally runs the sequential oracle and fails the
	// run if committed results differ. Used by tests; expensive for large
	// configurations.
	VerifyOracle bool

	// SampleEvery, when nonzero, records a time series of cluster state
	// (GVT, processed/rolled-back counts, utilization) into Result.Samples:
	// one sample at the first window barrier past each multiple of this
	// model-time interval. Sampling schedules nothing, so it changes no
	// modeled time, and it reads the same at any shard count.
	SampleEvery vtime.ModelTime

	// Fault installs the deterministic fault-injection plane at the
	// fabric and NIC-ring layer. The zero Plan injects nothing. The plan
	// is plain comparable data, so it participates in Config.Digest and
	// the runner cache key automatically.
	Fault fault.Plan

	// CheckInvariants wires the runtime protocol-invariant oracles
	// (internal/invariant) into the run and attaches their report to
	// Result.Invariants. Enabled implicitly when a fault plan is set.
	CheckInvariants bool
}

// WithDefaults returns the config with zero values replaced by defaults.
func (c Config) WithDefaults() Config {
	if c.GVTPeriod == 0 {
		c.GVTPeriod = 1000
	}
	if c.Costs == (hostmodel.CostTable{}) {
		c.Costs = hostmodel.DefaultCostTable()
	}
	if c.NIC == (nic.Config{}) {
		c.NIC = nic.DefaultConfig()
	}
	if c.Net == (simnet.Config{}) {
		c.Net = simnet.DefaultConfig()
	}
	if c.Bus == (iobus.Config{}) {
		c.Bus = iobus.DefaultConfig()
	}
	if c.Flow == (mpich.Config{}) {
		c.Flow = mpich.DefaultConfig()
	}
	if c.MaxModelTime == 0 {
		c.MaxModelTime = 24 * 3600 * vtime.Second
	}
	return c
}

// Validate rejects inconsistent configurations. Violations are reported as
// *FieldError values naming the offending Config field.
func (c Config) Validate() error {
	if c.App == nil {
		return &FieldError{Field: "App", Value: nil, Reason: "no application configured"}
	}
	if c.Nodes < 1 {
		return &FieldError{Field: "Nodes", Value: c.Nodes, Reason: "need at least one node"}
	}
	if c.GVTPeriod < 1 {
		return &FieldError{Field: "GVTPeriod", Value: c.GVTPeriod, Reason: "GVT period must be >= 1"}
	}
	switch c.GVT {
	case GVTHostMattern, GVTNIC, GVTPGVT, GVTNICTree:
	default:
		return &FieldError{Field: "GVT", Value: int(c.GVT),
			Reason: "unknown GVT mode (want " + strings.Join(GVTModeNames(), ", ") + ")"}
	}
	if c.EarlyCancel && c.Cancellation != timewarp.Aggressive {
		// The in-place drop is only provably cancelled by the host under
		// aggressive cancellation (see firmware.CancelFirmware).
		return &FieldError{Field: "EarlyCancel", Value: true,
			Reason: "early cancellation requires aggressive cancellation"}
	}
	if c.EarlyCancel && c.GVT == GVTPGVT {
		// A packet dropped in place is never delivered, so it would pin the
		// sender's unacknowledged-send set and stall pGVT forever.
		return &FieldError{Field: "EarlyCancel", Value: true,
			Reason: "early cancellation is incompatible with pGVT (dropped packets are never acknowledged)"}
	}
	if err := c.Costs.Validate(); err != nil {
		return err
	}
	if err := c.Fault.Validate(); err != nil {
		return &FieldError{Field: "Fault", Value: c.Fault.Scenario, Reason: err.Error()}
	}
	if c.NIC.BatchMax < 0 {
		return &FieldError{Field: "NIC.BatchMax", Value: c.NIC.BatchMax,
			Reason: "batch size must be >= 0 (0 and 1 both mean no batching)"}
	}
	if c.NIC.BatchMax > proto.MaxBatchSubs {
		return &FieldError{Field: "NIC.BatchMax", Value: c.NIC.BatchMax,
			Reason: fmt.Sprintf("a batch frame carries at most %d sub-messages", proto.MaxBatchSubs)}
	}
	if c.NIC.FlushHorizon < 0 {
		return &FieldError{Field: "NIC.FlushHorizon", Value: int(c.NIC.FlushHorizon),
			Reason: "flush horizon must be >= 0"}
	}
	if c.NIC.FlushHorizon > 0 && c.NIC.BatchMax <= 1 {
		return &FieldError{Field: "NIC.FlushHorizon", Value: int(c.NIC.FlushHorizon),
			Reason: "flush horizon requires batching (NIC.BatchMax >= 2)"}
	}
	// A topology is valid when its name parses back; an out-of-range value
	// prints as "Topology(n)", which does not.
	if _, err := ParseTopology(c.Net.Topology.String()); err != nil {
		return err
	}
	if c.Net.Radix < 0 {
		return &FieldError{Field: "Net.Radix", Value: c.Net.Radix,
			Reason: "switch radix must be >= 0 (0 means simnet.DefaultRadix)"}
	}
	return c.Flow.Validate()
}

// idleGVTBackoff throttles GVT re-initiation while an LP sits idle, so the
// termination-detection cycles do not spin at wire speed.
const idleGVTBackoff = 500 * vtime.Microsecond

// node is one cluster node: the modeled host and its NIC, plus the software
// stack state.
type node struct {
	id      int
	cluster *Cluster
	eng     *des.Engine // the shard engine this node lives on (lane = id)

	cpu    *hostmodel.CPU
	bus    *iobus.Bus
	nicDev *nic.NIC
	kernel *timewarp.Kernel
	mgr    gvt.Manager
	bipEnd *bip.Endpoint
	flow   *mpich.Endpoint

	remoteAntisDelivered uint64 // the processed-anti epoch piggybacked on sends
	loopActive           bool
	idleNotified         bool
	numObjects           int // local simulation objects (cost scaling)

	// sendBatches queues the Remote slices of finished kernel steps for the
	// CPU jobs that transmit them. The CPU resource completes jobs in
	// submission order, so a FIFO ring pairs each nodeSendBatch job with
	// the batch pushed when it was submitted — no per-step closure.
	sendBatches dense.FIFO[[]*timewarp.Event] //nicwarp:owns in flight toward the NIC; events recycled after encoding
	// draining is the batch nodeSendBatch is currently encoding and
	// drainFrom the first entry not yet handed to transmitEvent: the
	// events a GVT report filled mid-batch (piggybacked on an earlier
	// entry) would otherwise not see. emitted is the same visibility for
	// the instant between ProcessOne and finishStep, where OnProcessed can
	// initiate a GVT computation before the step's output is parked.
	draining  []*timewarp.Event //nicwarp:owns outboundMin-scoped alias of the batch being encoded; nilled before RecycleRemoteBuf
	drainFrom int
	emitted   []*timewarp.Event //nicwarp:owns outboundMin-scoped alias of step output; nilled before finishStep parks the events
	// inbox pairs inbound packets with their rx-slot release callbacks for
	// the DMA + absorb pipeline (same FIFO-completion argument: the bus and
	// the CPU each preserve submission order).
	inbox dense.FIFO[inboundPkt]
	// outbox holds packets DMAing toward the NIC; the bus is FIFO, so each
	// completion pops exactly the packet pushed for it — no per-packet
	// closure on the transmit path.
	outbox dense.FIFO[*proto.Packet] //nicwarp:owns DMA queue; packets leave via the NIC or the free list
	// scratchEv is the reused decode target for inbound event packets; the
	// kernel copies at the Deliver boundary.
	scratchEv timewarp.Event
	// scratchPkt is the reused per-sub-message view when a batch frame is
	// unpacked: every layer below the kernel (checker, GVT manager, BIP)
	// reads inbound packets without retaining them, so one decode target
	// serves all sub-messages in turn.
	scratchPkt proto.Packet
	// absorbsQueued counts inbound packets whose DMA finished but whose
	// absorb job has not yet run; it locates the packet a DMA completion
	// belongs to (inbox.Live()[absorbsQueued]) so its absorb cost can
	// depend on the packet — a batch frame pays one interrupt but per-sub
	// protocol work.
	absorbsQueued int

	// pktFree recycles event/anti packets. The pool is per node so shards
	// never contend: a packet is acquired by its source node's engine in
	// transmitEvent (which fully overwrites every field) and released into
	// the *destination* node's pool once that host has decoded it — packets
	// migrate between pools, but each pool is only ever touched by its own
	// node's engine.
	pktFree []*proto.Packet //nicwarp:owns the packet free list is the release destination itself

	// doorbells holds the per-tag receivers for NIC doorbell completions.
	doorbells [nic.NotifyCreditRefund + 1]doorbell

	// finalGVT is the highest GVT this node has committed. Per node (not on
	// the cluster) because commits fire on shard engines concurrently; the
	// cluster-wide value is the max, folded after the run quiesces.
	finalGVT vtime.VTime

	// Per-node message accounting.
	eventsBuilt stats.Counter // event-like packets built by the host
	antisBuilt  stats.Counter // anti-message packets built by the host
}

// inboundPkt is one packet crossing the NIC-to-host pipeline.
type inboundPkt struct {
	pkt  *proto.Packet //nicwarp:owns pipeline slot; released when the host decodes the packet
	done func()
}

// view adapts a node to gvt.Host.
type view struct{ n *node }

func (v view) LP() int     { return v.n.id }
func (v view) NumLPs() int { return len(v.n.cluster.nodes) }

func (v view) LVT() vtime.VTime         { return v.n.kernel.LVT() }
func (v view) OutboundMin() vtime.VTime { return v.n.outboundMin() }
func (v view) CommitGVT(g vtime.VTime) {
	v.n.commitGVT(g)
}
func (v view) SendControl(pkt *proto.Packet) {
	n := v.n
	c := n.cpu.Costs
	n.cpu.DoArg2(hostmodel.CatGVT, c.GVTMsgBuild+c.SendOverhead, nodeTransmitHostPacket, n, pkt)
}
func (v view) Shared() *nic.SharedWindow { return v.n.nicDev.Shared() }
func (v view) RingDoorbell() {
	n := v.n
	n.cpu.DoArg(hostmodel.CatGVT, n.cpu.Costs.SharedWrite, nodeDoorbellWritten, n)
}
func (v view) Schedule(d vtime.ModelTime, fn func(interface{}), arg interface{}) des.TimerRef {
	return v.n.eng.ScheduleArgRef(d, fn, arg)
}
func (v view) Now() vtime.ModelTime { return v.n.eng.Now() }

// nodeDoorbellWritten: the host finished its shared-window write; the
// doorbell word crosses the bus.
func nodeDoorbellWritten(x interface{}) {
	n := x.(*node)
	n.bus.WordArg(nodeDoorbellCrossed, n)
}

// nodeDoorbellCrossed: the doorbell word reached the NIC.
func nodeDoorbellCrossed(x interface{}) { x.(*node).nicDev.Doorbell() }

// Cluster is an assembled experiment.
type Cluster struct {
	cfg    Config
	exec   Exec
	shards int

	// engines holds one event engine per shard; node i lives on engine
	// i mod shards, lane i. group couples them under the bounded-window
	// protocol; a serial run is a group of one.
	engines []*des.Engine
	group   *des.Group

	fabric *simnet.Fabric
	nodes  []*node
	home   map[timewarp.ObjectID]int
	objIDs []timewarp.ObjectID // global ascending order

	gvtFW []*firmware.GVTFirmware // per node, when GVTNIC or GVTNICTree

	plane   *fault.Plane       // fault-injection plane, when cfg.Fault is set
	checker *invariant.Checker // protocol oracles, when cfg.CheckInvariants

	samples    []Sample
	nextSample vtime.ModelTime // the SampleEvery boundary the next sample waits for
}

// packetSlab is how many packets one free-list miss allocates.
const packetSlab = 32

// allocPacket takes an event/anti packet from the node's free list,
// refilling it a slab at a time. The caller must overwrite every field.
// Control packets never pass through here: a GVT control packet belongs to
// the manager it was delivered to, which sends it on or keeps it
// (gvt.MatternManager), and an explicit credit message belongs to MPICH,
// whose receiving endpoint sends it out again as its own next credit reply.
func (n *node) allocPacket() *proto.Packet {
	return dense.Take(&n.pktFree, packetSlab)
}

// releasePacket returns a packet to this node's free list. The caller
// guarantees no layer still references it: event/anti packets are released
// only after the destination host decoded them into a kernel event, and
// every intermediate layer (BIP, MPICH, GVT managers, NIC firmware) reads
// inbound packets without retaining them.
//
//nicwarp:owns the free list is the release destination: p may be handed out again at the next allocPacket
func (n *node) releasePacket(p *proto.Packet) {
	n.pktFree = append(n.pktFree, p)
}

// NewClusterExec assembles (but does not run) an experiment under the given
// execution strategy. The strategy never changes what the run computes:
// committed results and digests are byte-identical at every shard count.
func NewClusterExec(cfg Config, ex Exec) (*Cluster, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if g, ok := cfg.App.(Grained); ok {
		cfg.Costs.EventGrain = g.EventGrain()
	}
	cl := &Cluster{
		cfg:    cfg,
		exec:   ex,
		shards: ex.shards(cfg),
		home:   make(map[timewarp.ObjectID]int),
	}
	cl.engines = make([]*des.Engine, cl.shards)
	for i := range cl.engines {
		cl.engines[i] = des.NewEngine()
	}
	cl.group = des.NewGroup(cl.engines, Lookahead(cfg))
	cl.fabric = simnet.NewFabric(cfg.Net, cfg.Nodes)
	cl.gvtFW = make([]*firmware.GVTFirmware, cfg.Nodes)

	if cfg.Fault.Enabled() {
		cl.plane = fault.NewPlane(cfg.Fault, cfg.Nodes)
		cl.fabric.SetTap(cl.plane)
	}
	if cfg.CheckInvariants || cfg.Fault.Enabled() {
		cl.checker = invariant.NewChecker(cfg.Nodes)
	}
	if cl.checker != nil || cfg.SampleEvery > 0 {
		cl.nextSample = cfg.SampleEvery
		cl.group.SetBarrier(cl.barrier)
	}

	for i := 0; i < cfg.Nodes; i++ {
		n := &node{id: i, cluster: cl, finalGVT: -1}
		for tag := range n.doorbells {
			n.doorbells[tag] = doorbell{n: n, tag: nic.NotifyTag(tag)}
		}
		n.eng = cl.engines[i%cl.shards]
		n.eng.SetLane(uint32(i))
		n.cpu = hostmodel.NewCPU(n.eng, i, cfg.Costs)
		n.bus = iobus.NewBus(n.eng, i, cfg.Bus)

		var parts []nic.Firmware
		if cfg.EarlyCancel {
			parts = append(parts, firmware.NewCancel())
		}
		switch cfg.GVT {
		case GVTNIC:
			cl.gvtFW[i] = firmware.NewGVT()
		case GVTNICTree:
			cl.gvtFW[i] = firmware.NewTreeGVT(treeArity(cfg))
		}
		if cl.gvtFW[i] != nil {
			parts = append(parts, cl.gvtFW[i])
		}
		var fw nic.Firmware
		switch len(parts) {
		case 0:
			fw = firmware.NewForwarder()
		case 1:
			fw = parts[0]
		default:
			fw = firmware.NewChain(parts...)
		}
		n.nicDev = nic.New(n.eng, i, cfg.NIC, cl.fabric, fw)
		n.nicDev.SetPacketRecycler(n.releasePacket)
		if cfg.DropBufferCap > 0 {
			n.nicDev.Shared().Dropped = nic.NewDropBuffer(cfg.DropBufferCap)
		}

		n.kernel = timewarp.NewKernel(timewarp.Config{
			LP:           i,
			Cancellation: cfg.Cancellation,
		})
		switch cfg.GVT {
		case GVTHostMattern:
			n.mgr = gvt.NewMattern(cfg.GVTPeriod)
		case GVTNIC, GVTNICTree:
			m := gvt.NewNICGVT(cfg.GVTPeriod)
			if cfg.GVTFallbackDelay > 0 {
				m.FallbackDelay = cfg.GVTFallbackDelay
			}
			n.mgr = m
		case GVTPGVT:
			n.mgr = gvt.NewPGVT(cfg.GVTPeriod)
		default:
			return nil, fmt.Errorf("core: unknown GVT mode %d", cfg.GVT)
		}

		n.bipEnd = bip.New(i)
		if cfg.Fault.Enabled() {
			// Wire faults duplicate, reorder and retransmit; the endpoint
			// must classify regressions instead of treating them as model
			// bugs.
			n.bipEnd.SetTolerant(true)
		}
		n.flow = mpich.New(i, cfg.Flow, n.bipTransmit)

		n.nicDev.Wire(n.nicDeliver, n.nicNotify)
		if cl.checker != nil {
			nd := n
			n.nicDev.SetHostDiscardHook(func(p *proto.Packet) {
				cl.checker.OnNICDiscard(nd.id, p)
			})
		}
		cl.nodes = append(cl.nodes, n)
	}

	// Backpressure lookup between NICs.
	for _, n := range cl.nodes {
		n.nicDev.WirePeers(func(node int) *nic.NIC {
			return cl.nodes[node].nicDev
		})
	}

	// Build and place the application.
	objs, place := cfg.App.Build(cfg.Nodes, cfg.Seed)
	for id := range objs {
		cl.objIDs = append(cl.objIDs, id)
	}
	slices.Sort(cl.objIDs)
	for _, id := range cl.objIDs {
		lp := place(id)
		if lp < 0 || lp >= cfg.Nodes {
			return nil, fmt.Errorf("core: object %d placed on invalid LP %d", id, lp)
		}
		cl.home[id] = lp
		cl.nodes[lp].kernel.AddObject(id, objs[id])
		cl.nodes[lp].numObjects++
	}
	return cl, nil
}

// treeArity derives the GVT reduction-tree branching factor from the
// fabric's stage radix, so the tree's shape follows the topology's natural
// fan-out (firmware.DefaultTreeArity when the config does not set one).
func treeArity(cfg Config) int {
	if cfg.Net.Radix > 0 {
		return cfg.Net.Radix
	}
	return firmware.DefaultTreeArity
}

// Engine exposes the first shard's engine (examples and tests inspect the
// clock of serial runs; sharded callers should prefer Now).
func (cl *Cluster) Engine() *des.Engine { return cl.engines[0] }

// Shards returns the effective shard count the cluster was assembled with.
func (cl *Cluster) Shards() int { return cl.shards }

// Now returns the cluster clock: the furthest shard's model time.
func (cl *Cluster) Now() vtime.ModelTime { return cl.group.Now() }

// Run executes the experiment to quiescence and returns the results.
func (cl *Cluster) Run() (*Result, error) {
	// Boot: managers start, kernels bootstrap, initial sends dispatch. Each
	// node's boot work runs under its own lane so the per-lane sequence
	// draws — and therefore every tie-break — are identical at any shard
	// count.
	for _, n := range cl.nodes {
		n.eng.SetLane(uint32(n.id))
		n.mgr.Start(view{n})
	}
	for _, n := range cl.nodes {
		n.eng.SetLane(uint32(n.id))
		res := n.kernel.Bootstrap()
		n.finishStep(res, hostmodel.CatEvent)
	}
	for _, n := range cl.nodes {
		n.eng.SetLane(uint32(n.id))
		n.pump()
	}
	if cl.plane != nil {
		rings := make([]fault.RingCtrl, len(cl.nodes))
		engs := make([]*des.Engine, len(cl.nodes))
		for i, n := range cl.nodes {
			rings[i] = n.nicDev
			engs[i] = n.eng
		}
		cl.plane.InstallRings(rings, engs, cl.nodeBusy)
		cl.plane.Start()
	}
	cl.group.Run(cl.cfg.MaxModelTime)
	// A run ends only when every kernel is quiescent. Under lazy
	// cancellation the event list can drain while kernels still hold
	// deferred cancellations, which only a GVT commit past their send time
	// flushes — and a GVT computation that made no progress commits nothing
	// and starts no next one. Wake the root manager until the kernels drain.
	// Every shard clock then reads the cluster clock (des.Group.Run), so the
	// wake-up acts at the same time serially and sharded.
	root := cl.nodes[0]
	for cl.group.Pending() == 0 && !cl.quiescent() {
		root.eng.SetLane(uint32(root.id))
		root.mgr.OnIdle(view{root})
		if cl.group.Pending() == 0 {
			break // the manager started nothing
		}
		cl.group.Run(cl.cfg.MaxModelTime)
	}
	if pending := cl.group.Pending(); pending > 0 {
		return nil, fmt.Errorf("core: run exceeded MaxModelTime=%v (pending=%d)",
			cl.cfg.MaxModelTime, pending)
	}
	for _, n := range cl.nodes {
		if !n.kernel.Quiescent() {
			return nil, fmt.Errorf("core: node %d kernel not quiescent at end of run", n.id)
		}
		if n.flow.WaitingCount() > 0 {
			return nil, fmt.Errorf("core: node %d has %d packets stuck in flow control",
				n.id, n.flow.WaitingCount())
		}
	}
	if cl.checker != nil {
		cl.runQuiescenceChecks()
	}
	res := cl.collect()
	if cl.cfg.VerifyOracle {
		if err := cl.verifyOracle(res); err != nil {
			return res, err
		}
	}
	return res, nil
}

// quiescent reports whether every node's kernel is quiescent.
func (cl *Cluster) quiescent() bool {
	for _, n := range cl.nodes {
		if !n.kernel.Quiescent() {
			return false
		}
	}
	return true
}

// nodeBusy reports whether one node still has real model work: the fault
// plane's episode timers re-arm on this probe. It deliberately excludes
// eng.Pending() — counting the plane's own timers would keep the episode
// chains alive forever and run the model to the horizon. The probe is per
// node (not cluster-wide) because it fires on the node's shard engine and
// must not read state owned by other shards.
func (cl *Cluster) nodeBusy(node int) bool {
	n := cl.nodes[node]
	return n.kernel.HasWork() || !n.cpu.Idle() || !n.nicDev.Idle() || n.flow.WaitingCount() > 0
}

// barrier runs at every window close of the cluster's group: the one place
// a run reads state across nodes. Every engine has then run exactly the
// events below the window horizon, and the horizons are the same at any
// shard count, so what it folds and samples is too.
func (cl *Cluster) barrier() {
	if cl.checker != nil {
		cl.checker.Fold(cl.invariantFloor())
	}
	if every := cl.cfg.SampleEvery; every > 0 {
		if now := cl.group.Now(); now >= cl.nextSample {
			cl.sample(now)
			cl.nextSample = (now/every + 1) * every
		}
	}
}

// invariantFloor computes the host-visible part of the true GVT bound at a
// window barrier: the minimum over every node's LVT and the receive
// timestamps of kernel output parked in send batches (emitted by the
// kernel, not yet handed to the protocol stack — the only messages the
// checker's in-transit map cannot see yet).
func (cl *Cluster) invariantFloor() vtime.VTime {
	floor := vtime.Infinity
	for _, n := range cl.nodes {
		if lvt := n.kernel.LVT(); lvt < floor {
			floor = lvt
		}
		for _, batch := range n.sendBatches.Live() {
			for _, ev := range batch {
				if ev.RecvTS < floor {
					floor = ev.RecvTS
				}
			}
		}
	}
	return floor
}

// runQuiescenceChecks feeds the drained cluster's final state to the
// invariant oracles: per-pair credit conservation, BIP gap accounting
// against the NIC drop records, ledger drain, anti annihilation, and
// message conservation. It folds once more first: the post-drain OnIdle
// wake-up runs outside any window.
func (cl *Cluster) runQuiescenceChecks() {
	ck := cl.checker
	ck.Fold(cl.invariantFloor())
	window := cl.cfg.Flow.Window
	for _, s := range cl.nodes {
		for _, peer := range s.flow.TouchedPeers() {
			if int(peer) == s.id {
				continue
			}
			ck.CheckCreditPair(s.id, int(peer),
				s.flow.CreditsAvailable(peer),
				cl.nodes[peer].flow.OwedTo(int32(s.id)),
				window)
		}
		w := s.nicDev.Shared()
		for _, r := range cl.nodes {
			if r.id == s.id {
				continue
			}
			stamped := s.bipEnd.StampedTo(int32(r.id))
			highest := r.bipEnd.HighestFrom(int32(s.id))
			holes := r.bipEnd.MissingFrom(int32(s.id))
			drops := w.DropsByDst.At(int32(r.id))
			if stamped == 0 && highest == 0 && holes == 0 && drops == 0 {
				continue
			}
			ck.CheckBIPPair(s.id, r.id, holes, stamped, highest, drops)
		}
		ck.CheckDrained(s.id, w.CreditRefund.Sum(), w.CreditSalvage.Sum())
		ck.CheckZombies(s.id, s.kernel.ZombieCount(), w.Dropped.TotalLen())
	}
	ck.CheckTransitEmpty()
}

// verifyOracle compares committed results with a sequential run of a fresh
// application build.
func (cl *Cluster) verifyOracle(res *Result) error {
	objs, _ := cl.cfg.App.Build(cl.cfg.Nodes, cl.cfg.Seed)
	ref := timewarp.Sequential(objs, 0)
	if res.CommittedEvents != ref.TotalEvents {
		return fmt.Errorf("core: committed %d events, oracle %d", res.CommittedEvents, ref.TotalEvents)
	}
	if res.Digest != ref.Digest {
		return fmt.Errorf("core: digest %x != oracle %x", res.Digest, ref.Digest)
	}
	return nil
}

// Digest folds every object's final state, in global ID order, exactly as
// the sequential oracle does.
func (cl *Cluster) Digest() uint64 {
	h := uint64(0x243F6A8885A308D3)
	for _, id := range cl.objIDs {
		n := cl.nodes[cl.home[id]]
		h = timewarp.DigestMix(h, uint64(uint32(id)))
		h = timewarp.DigestMix(h, n.kernel.ObjectDigest(id))
	}
	return h
}

// ---- node: host main loop ----

// pump drives the host main loop: one kernel event per CPU job, matching
// WARPED's lowest-timestamp-first scheduling on each LP.
func (n *node) pump() {
	if n.loopActive {
		return
	}
	// Blocking-send semantics: a full MPICH send buffer stalls the event
	// loop until credit returns drain it (incoming traffic and rollbacks
	// still proceed — they run as their own jobs). This is Time Warp's
	// natural flow-control throttle on runaway optimism.
	if n.flow.Congested() {
		return
	}
	if !n.kernel.HasWork() {
		if !n.idleNotified {
			n.idleNotified = true
			n.mgr.OnIdle(view{n}) //nicwarp:alloc GVT manager dispatch, once per idle transition; view is one pointer wide and boxes without a heap copy
		}
		return
	}
	n.idleNotified = false
	n.loopActive = true
	c := n.cpu.Costs
	cost := c.EventGrain + c.KernelOverhead + c.HistPenalty(n.kernel.HistoryEvents())
	n.cpu.DoArg(hostmodel.CatEvent, cost, nodePumpStep, n)
}

// nodePumpStep is the main-loop CPU job: execute one kernel event.
func nodePumpStep(x interface{}) {
	n := x.(*node)
	n.loopActive = false
	// The event this job was dispatched for can vanish while the job
	// waits its turn (an anti-message annihilated it); the host then
	// paid the dispatch for nothing, which is exactly what happens on
	// real hardware.
	if !n.kernel.HasWork() {
		n.pump()
		return
	}
	res := n.kernel.ProcessOne()
	// The step's remote sends are parked by finishStep; until then they are
	// invisible to the kernel's LVT, so expose them to outboundMin across
	// the OnProcessed hook (a root manager can initiate a GVT computation
	// there and must bound them).
	n.emitted = res.Remote
	n.mgr.OnProcessed(view{n})
	n.emitted = nil
	n.finishStep(res, hostmodel.CatEvent)
	n.pump()
}

// finishStep charges the communication and rollback costs of a kernel step
// and dispatches its remote messages.
func (n *node) finishStep(res timewarp.StepResult, cat hostmodel.Category) {
	c := n.cpu.Costs
	cost := vtime.ModelTime(len(res.Remote))*c.SendOverhead +
		vtime.ModelTime(res.Rollbacks)*c.RollbackBase +
		vtime.ModelTime(res.UndoneEvents+res.AntisEmitted)*c.RollbackPerEvent
	if cost == 0 && len(res.Remote) == 0 {
		return
	}
	if res.Rollbacks > 0 {
		cat = hostmodel.CatRollback
	}
	n.sendBatches.Push(res.Remote)
	n.cpu.DoArg(cat, cost, nodeSendBatch, n)
}

// nodeSendBatch is the CPU job paired (FIFO) with one pushed batch: transmit
// its events and re-arm the main loop.
func nodeSendBatch(x interface{}) {
	n := x.(*node)
	batch := n.sendBatches.Pop()
	// A GVT report can be piggybacked on any entry (OnSent fires inside
	// transmitEvent); keep the not-yet-encoded tail visible to outboundMin
	// so the report's floor covers it.
	n.draining = batch
	for i, ev := range batch {
		n.drainFrom = i + 1
		n.transmitEvent(ev)
	}
	n.draining = nil
	n.drainFrom = 0
	// Every event was recycled by transmitEvent; hand the backing array
	// back too so the kernel's next remote emission reuses it.
	n.kernel.RecycleRemoteBuf(batch)
	n.pump()
}

// transmitEvent converts a kernel event into a packet and pushes it down
// the stack. The send overhead was charged by finishStep. The packet comes
// from the cluster pool (fully overwritten here) and the kernel event goes
// back to the kernel pool once its fields are copied out.
func (n *node) transmitEvent(ev *timewarp.Event) {
	kind := proto.KindEvent
	if ev.Sign < 0 {
		kind = proto.KindAnti
		n.antisBuilt.Inc()
	}
	pkt := n.allocPacket()
	*pkt = proto.Packet{
		Kind:           kind,
		SrcNode:        int32(n.id),
		DstNode:        int32(n.cluster.home[ev.Dst]),
		SrcObj:         int32(ev.Src),
		DstObj:         int32(ev.Dst),
		SendTS:         ev.SendTS,
		RecvTS:         ev.RecvTS,
		EventID:        ev.ID,
		Payload:        ev.Payload,
		PiggyAntiEpoch: n.remoteAntisDelivered,
	}
	n.kernel.Recycle(ev)
	n.eventsBuilt.Inc()
	if ck := n.cluster.checker; ck != nil {
		ck.OnSent(pkt)
	}
	n.mgr.OnSent(view{n}, pkt)
	n.flow.Send(pkt)
}

// nodeTransmitHostPacket is the CPU job that built a host control packet
// (a GVT token or an explicit credit message) finishing: push the packet
// down the stack.
//
//nicwarp:hotpath one per host GVT control packet — several per committed event under host Mattern at period 1
func nodeTransmitHostPacket(x, p interface{}) {
	x.(*node).flow.Send(p.(*proto.Packet)) //nicwarp:alloc MPICH parks the packet when the peer's credit window is exhausted; that buffer's growth is amortized
}

// bipTransmit is the mpich endpoint's transmit callback: BIP stamps the
// sequence number and the packet DMAs across the I/O bus into the NIC.
func (n *node) bipTransmit(pkt *proto.Packet) {
	n.bipEnd.Stamp(pkt)
	n.outbox.Push(pkt)
	n.bus.DMAArg(pkt.EncodedSize(), nodeOutboundDMADone, n)
}

// nodeOutboundDMADone: the host-to-NIC DMA finished; hand the oldest
// outbound packet to the NIC's send machinery.
func nodeOutboundDMADone(x interface{}) {
	n := x.(*node)
	n.nicDev.HostEnqueue(n.outbox.Pop())
}

// nicDeliver is wired into the NIC: an inbound packet DMAs across the bus,
// then the host absorbs it under interrupt + protocol costs. done releases
// the NIC receive slot once the host has consumed the packet, which is what
// propagates host congestion back through the fabric to the sender.
func (n *node) nicDeliver(pkt *proto.Packet, done func()) {
	n.inbox.Push(inboundPkt{pkt: pkt, done: done})
	n.bus.DMAArg(pkt.EncodedSize(), nodeInboundDMADone, n)
}

// nodeInboundDMADone: the NIC-to-host DMA finished; charge the interrupt and
// protocol costs, then absorb. The bus and CPU are FIFO resources, so the
// absorb job pops exactly the packet pushed for it.
func nodeInboundDMADone(x interface{}) {
	n := x.(*node)
	c := n.cpu.Costs
	cost := c.InterruptOverhead + c.RecvOverhead
	// The bus is FIFO, so this completion belongs to the oldest inbound
	// packet without a queued absorb job. A batch frame amortizes the
	// interrupt across its sub-messages but pays full per-message protocol
	// cost for each.
	if in := n.inbox.Live()[n.absorbsQueued]; in.pkt.Kind == proto.KindBatch {
		cost = c.InterruptOverhead + vtime.ModelTime(len(in.pkt.Subs))*c.RecvOverhead
	}
	n.absorbsQueued++
	n.cpu.DoArg(hostmodel.CatComm, cost, nodeAbsorbPacket, n)
}

// nodeAbsorbPacket integrates the oldest DMAed packet on the host.
func nodeAbsorbPacket(x interface{}) {
	n := x.(*node)
	n.absorbsQueued--
	in := n.inbox.Pop()
	n.hostReceive(in.pkt)
	in.done()
	n.pump()
}

// outboundMin returns the minimum send timestamp over every message the
// kernel has emitted that has not yet reached the NIC's transmit-side GVT
// accounting point: step output not yet parked (emitted), parked batches
// (sendBatches), the tail of the batch being encoded (draining), packets
// stalled in MPICH flow control, and packets DMAing toward the NIC
// (outbox). The NIC covers its own transmit queue (firmware queuedSendMin);
// past that, countSend and the receive ledger take over. Scanned only when
// a GVT report is filled, never on the event hot path.
func (n *node) outboundMin() vtime.VTime {
	min := vtime.Infinity
	for _, ev := range n.emitted {
		min = vtime.MinV(min, ev.SendTS)
	}
	for _, batch := range n.sendBatches.Live() {
		for _, ev := range batch {
			min = vtime.MinV(min, ev.SendTS)
		}
	}
	if n.draining != nil {
		for _, ev := range n.draining[n.drainFrom:] {
			min = vtime.MinV(min, ev.SendTS)
		}
	}
	for _, pkt := range n.outbox.Live() {
		if pkt.IsEventLike() {
			min = vtime.MinV(min, pkt.SendTS)
		}
	}
	return vtime.MinV(min, n.flow.PendingMin())
}

// doorbell is the threaded receiver for one NIC-to-host doorbell tag's
// completions. A node keeps one per tag, so raising a doorbell captures
// nothing and allocates nothing.
type doorbell struct {
	n   *node
	tag nic.NotifyTag
}

// nicNotify is wired into the NIC: a doorbell crosses the bus and interrupts
// the host.
func (n *node) nicNotify(tag nic.NotifyTag) {
	n.bus.WordArg(doorbellWordDone, &n.doorbells[tag])
}

// doorbellWordDone: the doorbell word crossed the bus; take the interrupt.
func doorbellWordDone(x interface{}) {
	d := x.(*doorbell)
	c := d.n.cpu.Costs
	cat := hostmodel.CatGVT
	if d.tag == nic.NotifyCreditRefund {
		cat = hostmodel.CatComm
	}
	d.n.cpu.DoArg(cat, c.InterruptOverhead+c.SharedWrite, doorbellInterrupt, d)
}

// doorbellInterrupt: the host services the doorbell.
func doorbellInterrupt(x interface{}) {
	d := x.(*doorbell)
	n := d.n
	if d.tag == nic.NotifyCreditRefund {
		n.drainCreditRefunds()
	} else {
		n.mgr.OnNotify(view{n}, d.tag)
	}
	n.pump()
}

// drainCreditRefunds reclaims flow-control credit for packets the NIC
// cancelled in place, and re-books credit returns that were riding on them.
// Both tables are indexed by destination node and walked ascending:
// BookOwed can emit a credit-return packet, and the order those leave in is
// observable in the hardware model.
//
//nicwarp:hotpath runs on every credit-refund doorbell, one per dropped packet under early cancellation
func (n *node) drainCreditRefunds() {
	w := n.nicDev.Shared()
	for dst, k := range w.CreditRefund {
		if k != 0 {
			w.CreditRefund[dst] = 0
			n.flow.Refund(int32(dst), int(k))
		}
	}
	for dst, k := range w.CreditSalvage {
		if k != 0 {
			w.CreditSalvage[dst] = 0
			if reply := n.flow.BookOwed(int32(dst), int(k)); reply != nil {
				n.sendCreditReply(reply)
			}
		}
	}
}

// sendCreditReply charges the host for and transmits an explicit
// flow-control credit message MPICH asked for.
func (n *node) sendCreditReply(reply *proto.Packet) {
	n.cpu.DoArg2(hostmodel.CatComm, n.cpu.Costs.SendOverhead, nodeTransmitHostPacket, n, reply)
}

// hostReceive integrates one inbound packet on the host.
func (n *node) hostReceive(pkt *proto.Packet) {
	if pkt.Kind == proto.KindBatch {
		n.hostReceiveBatch(pkt)
		return
	}
	verdict, _ := n.bipEnd.AcceptV(pkt)
	if verdict == bip.VerdictDuplicate {
		// A wire-fault duplicate: discard before any layer sees it — a
		// second flow.OnReceive would double-count piggybacked credit and
		// a second kernel.Deliver would corrupt the simulation. This is
		// exactly the protection BIP's sequence numbers buy.
		if ck := n.cluster.checker; ck != nil {
			ck.OnDuplicate(n.id, pkt)
		}
		if pkt.IsEventLike() {
			n.releasePacket(pkt)
		}
		return
	}
	// An explicit credit message belongs to MPICH once OnReceive has booked
	// it (it may leave again as this node's next credit reply), so the
	// dispatch below reads the kind taken before.
	kind := pkt.Kind
	if reply := n.flow.OnReceive(pkt); reply != nil {
		n.sendCreditReply(reply)
	}
	switch kind {
	case proto.KindEvent, proto.KindAnti:
		res := n.deliverEventLike(pkt)
		// The packet is fully decoded and no layer retained it.
		n.releasePacket(pkt)
		n.finishStep(res, hostmodel.CatComm)
	case proto.KindGVTControl:
		c := n.cpu.Costs
		// Token handling includes WARPED's per-object LVT recomputation.
		// The packet is the manager's from here on: no layer below holds
		// it, and the manager sends it on rewritten in place.
		cost := c.GVTHostCompute + vtime.ModelTime(n.numObjects)*c.GVTScanPerObject
		n.cpu.DoArg2(hostmodel.CatGVT, cost, nodeGVTControl, n, pkt)
	case proto.KindGVTBroadcast:
		n.mgr.OnControl(view{n}, pkt)
	case proto.KindAck:
		// Delivery acknowledgement for the pGVT manager.
		n.cpu.DoArg2(hostmodel.CatGVT, n.cpu.Costs.GVTHostCompute, nodeGVTControl, n, pkt)
	case proto.KindCredit:
		// Flow control handled above; the packet is MPICH's now.
	default:
		panic(fmt.Sprintf("core: node %d received unexpected packet %v", n.id, pkt))
	}
}

// nodeGVTControl is the CPU job charged for an inbound GVT token or pGVT
// acknowledgement finishing: the manager handles the packet and the main
// loop re-arms.
//
//nicwarp:hotpath one per inbound host GVT control packet
func nodeGVTControl(x, p interface{}) {
	n := x.(*node)
	n.mgr.OnControl(view{n}, p.(*proto.Packet)) //nicwarp:alloc GVT manager dispatch (view is one pointer wide and boxes without a heap copy)
	n.pump()
}

// deliverEventLike hands one BIP-accepted event or anti-message (a solo
// packet or a batch sub-message view) to the checker, the GVT manager and
// the kernel. The packet is only read: the kernel copies scratchEv at the
// Deliver boundary, so the caller may release or reuse pkt on return.
func (n *node) deliverEventLike(pkt *proto.Packet) timewarp.StepResult {
	if pkt.Kind == proto.KindAnti {
		n.remoteAntisDelivered++
	}
	if ck := n.cluster.checker; ck != nil {
		ck.OnDelivered(n.id, pkt)
	}
	n.mgr.OnReceived(view{n}, pkt)
	n.scratchEv = timewarp.Event{
		ID:      pkt.EventID,
		Src:     timewarp.ObjectID(pkt.SrcObj),
		Dst:     timewarp.ObjectID(pkt.DstObj),
		SendTS:  pkt.SendTS,
		RecvTS:  pkt.RecvTS,
		Sign:    pkt.Sign(),
		Payload: pkt.Payload,
	}
	return n.kernel.Deliver(&n.scratchEv)
}

// hostReceiveBatch unpacks a batch frame: each sub-message is verified
// against the per-source BIP stream and delivered exactly as a solo packet
// would be, through a reused packet view (no layer below the kernel
// retains inbound packets). The frame's flow-control header — piggybacked
// credit and one owed credit per accepted sub-message — is booked once, after classification, mirroring a solo
// packet's OnReceive; assembly-time drops inside the frame's sequence
// range surface as ordinary BIP gaps, and a wire-duplicated frame
// duplicates every sub-message, so nothing is double-booked.
func (n *node) hostReceiveBatch(frame *proto.Packet) {
	seqSubs := 0
	for i := range frame.Subs {
		pkt := &n.scratchPkt
		frame.SubPacket(i, pkt)
		verdict, _ := n.bipEnd.AcceptSeqV(pkt.SrcNode, pkt.Seq)
		if verdict == bip.VerdictDuplicate {
			if ck := n.cluster.checker; ck != nil {
				ck.OnDuplicate(n.id, pkt)
			}
			continue
		}
		seqSubs++
		n.finishStep(n.deliverEventLike(pkt), hostmodel.CatComm)
	}
	n.scratchPkt = proto.Packet{}
	if seqSubs > 0 {
		if reply := n.flow.OnReceiveBatch(frame, seqSubs); reply != nil {
			n.sendCreditReply(reply)
		}
	}
	n.nicDev.ReleaseFrame(frame)
}

// commitGVT installs a new GVT value on this node.
func (n *node) commitGVT(g vtime.VTime) {
	cl := n.cluster
	if ck := cl.checker; ck != nil {
		reported := g
		// SkewGVT is the test-only broken-invariant hook: it skews only
		// the value reported to the oracle, never the value the kernels
		// act on, so the run stays sound while the gvt-safety oracle must
		// flag it.
		if skew := cl.cfg.Fault.Spec.SkewGVT; skew > 0 && !g.IsInf() {
			reported = vtime.AddSat(g, skew)
		}
		ck.OnCommitGVT(n.id, reported)
	}
	if g > n.finalGVT || n.finalGVT == -1 {
		n.finalGVT = g
	}
	before := n.kernel.Stats.FossilEvents.Value()
	res := n.kernel.FossilCollect(g)
	reclaimed := n.kernel.Stats.FossilEvents.Value() - before
	c := n.cpu.Costs
	fossilCost := vtime.ModelTime(reclaimed)*c.FossilPerEvent +
		vtime.ModelTime(n.numObjects)*c.FossilPerObject
	n.cpu.DoArg(hostmodel.CatGVT, fossilCost, nil, nil)
	n.finishStep(res, hostmodel.CatGVT)
	// Keep termination detection alive: if the LP is idle after the
	// commit, let the manager decide whether another computation is needed
	// (it stops at GVT = Infinity).
	if !n.kernel.HasWork() && !g.IsInf() {
		n.eng.ScheduleArg(idleGVTBackoff, idleGVTKick, n)
	}
}

// idleGVTKick is the idle-backoff expiry: if the LP is still quiescent,
// hand the decision to the GVT manager. Top-level with the node threaded
// through so arming the backoff allocates nothing.
func idleGVTKick(x interface{}) {
	n := x.(*node)
	if !n.kernel.HasWork() && !n.loopActive {
		n.mgr.OnIdle(view{n})
	}
}

// committedGVT folds the per-node commit high-water marks into the
// cluster-wide value.
func (cl *Cluster) committedGVT() vtime.VTime {
	g := vtime.VTime(-1)
	for _, n := range cl.nodes {
		if n.finalGVT > g {
			g = n.finalGVT
		}
	}
	return g
}

// sample records one time-series point at group clock t, a window
// barrier.
func (cl *Cluster) sample(t vtime.ModelTime) {
	s := Sample{T: t, GVT: cl.committedGVT()}
	for _, n := range cl.nodes {
		s.Processed += n.kernel.Stats.Processed.Value()
		s.RolledBack += n.kernel.Stats.RolledBack.Value()
		s.MsgsBuilt += n.eventsBuilt.Value()
		s.DroppedInPlace += n.nicDev.Stats.DroppedInPlace.Value()
		s.HostUtil += n.cpu.UtilizationAt(t)
	}
	s.HostUtil /= float64(len(cl.nodes))
	cl.samples = append(cl.samples, s)
}
