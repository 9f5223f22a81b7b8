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
	"cmp"
	"fmt"
	"slices"
	"strings"
	"unsafe"

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
	// GVTNICTree is the tree-reduction variant of the NIC-level GVT: the
	// NICs fold subtree partial sums up a static k-ary tree and broadcast
	// the committed value back down, converging in O(log n) link hops
	// instead of the ring's O(n) circulation (firmware.GVTFirmware.Init).
	// Its value stays 3: Config.Digest hashes the mode as an integer, so
	// renumbering it would move every tree config's cache key. 2 was the
	// retired pGVT baseline and is rejected as unknown.
	GVTNICTree GVTMode = 3
)

// String implements fmt.Stringer.
func (m GVTMode) String() string {
	switch m {
	case GVTHostMattern:
		return "mattern"
	case GVTNIC:
		return "nic-gvt"
	case GVTNICTree:
		return "nic-tree"
	default:
		return fmt.Sprintf("GVTMode(%d)", int(m))
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

	// NIC and Net are the hardware an experiment varies; a zero NIC takes
	// nic.DefaultConfig. The rest of the testbed is the paper's fixed
	// calibration, which assembly passes to the layers as constants:
	// hostmodel.DefaultCostTable (with a Grained app's event grain),
	// iobus.DefaultConfig, mpich.DefaultConfig, nic.SendCycles and
	// simnet.LinkBandwidth and their siblings.
	NIC nic.Config
	Net simnet.Config

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
	if c.NIC == (nic.Config{}) {
		c.NIC = nic.DefaultConfig()
	}
	if c.MaxModelTime == 0 {
		c.MaxModelTime = 24 * 3600 * vtime.Second
	}
	return c
}

// Validate rejects inconsistent configurations. Violations are reported as
// *FieldError values naming the offending Config field. A NIC config that
// is entirely zero stands for its defaults (WithDefaults); one that is set
// only in part must still be runnable.
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
	case GVTHostMattern, GVTNIC, GVTNICTree:
	default:
		return &FieldError{Field: "GVT", Value: int(c.GVT),
			Reason: "unknown GVT mode (want " + strings.Join(GVTModeNames(), ", ") + ")"}
	}
	if c.GVTFallbackDelay < 0 {
		return &FieldError{Field: "GVTFallbackDelay", Value: c.GVTFallbackDelay,
			Reason: "piggyback patience must be >= 0 (0 keeps the default)"}
	}
	if c.DropBufferCap < 0 {
		return &FieldError{Field: "DropBufferCap", Value: c.DropBufferCap,
			Reason: "drop-buffer capacity must be >= 0 (0 keeps the default)"}
	}
	if c.MaxModelTime < 0 {
		return &FieldError{Field: "MaxModelTime", Value: c.MaxModelTime,
			Reason: "model-time limit must be >= 0 (0 keeps the default)"}
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
	if c.NIC != (nic.Config{}) && c.NIC.ClockHz <= 0 {
		return &FieldError{Field: "NIC.ClockHz", Value: c.NIC.ClockHz,
			Reason: "NIC clock must be positive (start a partial NIC config from nic.DefaultConfig)"}
	}
	if c.NIC != (nic.Config{}) && c.NIC.RxQueueCap < 1 {
		return &FieldError{Field: "NIC.RxQueueCap", Value: c.NIC.RxQueueCap,
			Reason: "receive buffer must hold at least one packet (start a partial NIC config from nic.DefaultConfig)"}
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
	return nil
}

// idleGVTBackoff throttles GVT re-initiation while an LP sits idle, so the
// termination-detection cycles do not spin at wire speed.
const idleGVTBackoff = 500 * vtime.Microsecond

// node is one cluster node, padded to a multiple of 64 bytes: a cluster's
// nodes live in one slice, and a node is written only by its own engine's
// goroutine, so two shards' neighbouring nodes must not share a cache line.
type node struct {
	_ [(64 - unsafe.Sizeof(nodeFields{})%64) % 64]byte // first: a trailing zero-size field would add a word
	nodeFields
}

// nodeFields are a node's contents: the modeled host and its NIC, plus the
// software stack state, every component by value and set up in place
// (NewClusterExec), so a node's memory is its slot of the cluster's slice.
type nodeFields struct {
	id      int
	cluster *Cluster
	eng     *des.Engine // the shard engine this node lives on (lane = id)

	cpu    hostmodel.CPU
	bus    iobus.Bus
	nicDev nic.NIC
	kernel timewarp.Kernel
	mgr    gvt.Manager // an element of the cluster's slice of the configured manager
	bipEnd bip.Endpoint
	flow   mpich.Endpoint

	remoteAntisDelivered uint64 // the processed-anti epoch piggybacked on sends
	loopActive           bool
	idleNotified         bool
	numObjects           int // local simulation objects (cost scaling)

	// outgoing holds the remote events of finished kernel steps, oldest
	// first, until the CPU jobs that transmit them run; sendBatches holds
	// how many of them each such job sends. The CPU resource completes jobs
	// in submission order, so a FIFO pairs each nodeSendBatch job with the
	// count pushed when it was submitted — no per-step closure — and an
	// event leaves outgoing just before it is encoded, so OutboundMin sees
	// exactly the events not yet handed to transmitEvent.
	outgoing    dense.Queue[*timewarp.Event] //nicwarp:owns in flight toward the NIC; events recycled after encoding
	sendBatches dense.Queue[int]
	// inbox pairs inbound packets with their rx-slot release callbacks for
	// the DMA + absorb pipeline (same FIFO-completion argument: the bus and
	// the CPU each preserve submission order).
	inbox dense.Queue[inboundPkt]
	// outbox holds packets DMAing toward the NIC; the bus is FIFO, so each
	// completion pops exactly the packet pushed for it — no per-packet
	// closure on the transmit path.
	outbox dense.Queue[*proto.Packet] //nicwarp:owns DMA queue; packets leave via the NIC or the free list
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

	// pool is the packet pool of this node's engine, shared with its NIC
	// and MPICH endpoint and with every other node on the same engine. A
	// packet is taken by its source node's engine in transmitEvent (which
	// fully overwrites every field) and released into the *destination*
	// node's engine's pool once that host has decoded it; each pool is only
	// ever touched by its own engine's goroutine.
	pool *proto.Pool

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

// inboundPkt is one packet crossing the NIC-to-host pipeline; holdsSlot
// when it holds a NIC receive slot.
type inboundPkt struct {
	pkt       *proto.Packet //nicwarp:owns pipeline slot; released when the host decodes the packet
	holdsSlot bool
}

// LVT, Now, SendControl, RingDoorbell, Schedule, OutboundMin and CommitGVT
// make a node its GVT manager's gvt.Host.
func (n *node) LVT() vtime.VTime     { return n.kernel.NextTS() }
func (n *node) Now() vtime.ModelTime { return n.eng.Now() }
func (n *node) SendControl(pkt *proto.Packet) {
	c := n.cpu.Costs
	n.cpu.DoArg2(hostmodel.CatGVT, c.GVTMsgBuild+c.SendOverhead, nodeTransmitHostPacket, n, pkt)
}
func (n *node) RingDoorbell() {
	n.cpu.DoArg(hostmodel.CatGVT, n.cpu.Costs.SharedWrite, nodeDoorbellWritten, n)
}
func (n *node) Schedule(d vtime.ModelTime, fn func(interface{}), arg interface{}) des.TimerRef {
	return n.eng.AtArgRef(n.eng.Now()+d, fn, arg)
}

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
	shards int

	// engines holds one event engine per shard; node i lives on engine
	// i mod shards, lane i. group couples them under the bounded-window
	// protocol; a serial run is a group of one.
	engines []*des.Engine
	group   *des.Group

	fabric *simnet.Fabric
	nodes  []node
	rows   *timewarp.Rows      // the kernels' rows and the object directory they share
	objIDs []timewarp.ObjectID // global ascending order

	gvtFW []firmware.GVTFirmware // one per node, when GVTNIC or GVTNICTree

	plane   *fault.Plane       // fault-injection plane, when cfg.Fault is set
	checker *invariant.Checker // protocol oracles, when cfg.CheckInvariants

	samples    []Sample
	nextSample vtime.ModelTime // the SampleEvery boundary the next sample waits for
}

// shard is one event engine and its packet and event pools, padded so that
// two shards, written by different goroutines on every event, never share a
// cache line.
type shard struct {
	eng des.Engine
	proto.Pool
	events timewarp.EventPool
	_      [64]byte
}

// Scratch is memory clusters assemble on, one after another: each shard's
// engine and pools (free lists kept), and the fabric's, nodes', peer tables'
// and kernels' arrays, reused cleared (dense.Reuse), so a cluster runs
// exactly as on fresh memory. The zero Scratch is empty.
type Scratch struct {
	shards                  []shard
	fabric                  *simnet.Fabric
	rows                    *timewarp.Rows
	nodes                   []node
	nextSeq, expect         []uint64
	credits, owed, txCredit []int32
}

// NewClusterExec assembles (but does not run) an experiment under the given
// execution strategy. The strategy never changes what the run computes:
// committed results and digests are byte-identical at every shard count.
func NewClusterExec(cfg Config, ex Exec) (*Cluster, error) {
	return NewClusterOn(cfg, ex, new(Scratch)) // on the stack: a cluster keeps only what s points to
}

// NewClusterOn is NewClusterExec on s. The last cluster on s must have
// returned from Run or never run; after a failed or panicked run, drop s:
// no shard goroutine holds it any more, but what it holds is mid-run.
func NewClusterOn(cfg Config, ex Exec, s *Scratch) (*Cluster, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	costs := hostmodel.DefaultCostTable()
	if g, ok := cfg.App.(Grained); ok {
		costs.EventGrain = g.EventGrain()
	}
	cl := &Cluster{cfg: cfg, shards: ex.shards(cfg)}
	s.shards = dense.Grow(s.shards, int32(cl.shards-1), shard{})
	cl.engines = make([]*des.Engine, cl.shards)
	for i := range cl.engines {
		cl.engines[i] = &s.shards[i].eng
		cl.engines[i].Init()
	}
	cl.group = des.NewGroup(cl.engines, Lookahead(cfg))
	if s.fabric == nil {
		s.fabric, s.rows = new(simnet.Fabric), new(timewarp.Rows)
	}
	cl.fabric, cl.rows = s.fabric, s.rows
	cl.fabric.Init(cfg.Net, cfg.Nodes)

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

	// Build and place the application first: each kernel's rows are sized
	// for its objects before they are added.
	objs, place := cfg.App.Build(cfg.Nodes, cfg.Seed)
	cl.objIDs = make([]timewarp.ObjectID, 0, len(objs))
	for id := range objs {
		cl.objIDs = append(cl.objIDs, id)
	}
	slices.Sort(cl.objIDs)
	if len(cl.objIDs) > 0 && cl.objIDs[0] < 0 {
		return nil, fmt.Errorf("core: %s built object %d: object ids must not be negative", cfg.App.Name(), cl.objIDs[0])
	}
	s.nodes = dense.Reuse(s.nodes, cfg.Nodes)
	cl.nodes = s.nodes
	perLP := make([]int, cfg.Nodes)
	for _, id := range cl.objIDs {
		lp := place(id)
		if lp < 0 || lp >= cfg.Nodes {
			return nil, fmt.Errorf("core: object %d placed on invalid LP %d", id, lp)
		}
		perLP[lp]++
	}
	cl.rows.Init(perLP, cl.objIDs)

	if cfg.GVT == GVTNIC || cfg.GVT == GVTNICTree {
		cl.gvtFW = make([]firmware.GVTFirmware, cfg.Nodes)
	}
	// The per-peer tables: one array each, a row per node (peerTable).
	nodes := cfg.Nodes
	nextSeq, expect := peerTable(&s.nextSeq, nodes), peerTable(&s.expect, nodes)
	credits, owed, txCredit := peerTable(&s.credits, nodes), peerTable(&s.owed, nodes), peerTable(&s.txCredit, nodes)
	// BIP stamps only its own node's packets: one transmit serves all nodes.
	transmit := func(p *proto.Packet) { cl.nodes[p.SrcNode].bipTransmit(p) }
	dropCap := cmp.Or(cfg.DropBufferCap, nic.DefaultDropBufferCap)
	for i := range cl.nodes {
		n := &cl.nodes[i]
		n.id, n.cluster, n.finalGVT, n.numObjects = i, cl, -1, perLP[i]
		for tag := range n.doorbells {
			n.doorbells[tag] = doorbell{n: n, tag: nic.NotifyTag(tag)}
		}
		n.eng = cl.engines[i%cl.shards]
		n.pool = &s.shards[i%cl.shards].Pool
		// The components' resources take the engine's current lane.
		n.eng.SetLane(uint32(i))
		n.cpu.Init(n.eng, costs)
		n.bus.Init(n.eng, iobus.DefaultConfig())

		var fw nic.Firmware = firmware.NewForwarder()
		if cl.gvtFW != nil {
			fw = &cl.gvtFW[i]
			if cfg.GVT == GVTNICTree {
				cl.gvtFW[i].Init(treeArity(cfg))
			}
		}
		if cfg.EarlyCancel && cl.gvtFW != nil {
			fw = firmware.NewChain(firmware.NewCancel(), fw)
		} else if cfg.EarlyCancel {
			fw = firmware.NewCancel()
		}
		n.nicDev.Init(n.eng, i, cfg.NIC, cl.fabric, fw, n.pool, dropCap, peerRow(txCredit, i, nodes))
		n.kernel.Init(timewarp.Config{LP: i}, cl.rows, &s.shards[i%cl.shards].events)
		n.bipEnd.Init(i, peerRow(nextSeq, i, nodes), peerRow(expect, i, nodes))
		if cfg.Fault.Enabled() {
			// Wire faults duplicate, reorder and retransmit; the endpoint
			// must classify regressions instead of treating them as model
			// bugs.
			n.bipEnd.SetTolerant(true)
		}
		n.flow.Init(i, mpich.DefaultConfig(), transmit, n.pool, peerRow(credits, i, nodes), peerRow(owed, i, nodes))

		n.nicDev.WireArg(nodeNICDeliver, nodeNICNotify, n)
		if cl.checker != nil {
			n.nicDev.SetHostDiscardHook(func(p *proto.Packet) {
				cl.checker.OnNICDiscard(n.id, p)
			})
		}
	}
	switch cfg.GVT {
	case GVTHostMattern:
		setManagers(cl.nodes, func(m *gvt.MatternManager, n *node) {
			m.Init(n, n.id, len(cl.nodes), n.nicDev.Shared(), cfg.GVTPeriod)
		})
	case GVTNIC, GVTNICTree:
		setManagers(cl.nodes, func(m *gvt.NICGVTManager, n *node) {
			m.Init(n, n.id, n.nicDev.Shared(), cfg.GVTPeriod, cfg.GVTFallbackDelay)
		})
	}

	// Backpressure lookup between NICs.
	peer := func(node int) *nic.NIC { return &cl.nodes[node].nicDev }
	for i := range cl.nodes {
		cl.nodes[i].nicDev.WirePeers(peer)
	}
	for _, id := range cl.objIDs {
		cl.nodes[place(id)].kernel.AddObject(id, objs[id])
	}
	return cl, nil
}

// setManagers gives every node its GVT manager from one slice, each set up
// in place and bound to its node by init.
func setManagers[M any, P interface {
	*M
	gvt.Manager
}](nodes []node, init func(P, *node)) {
	mgrs := make([]M, len(nodes))
	for i := range nodes {
		init(&mgrs[i], &nodes[i])
		nodes[i].mgr = P(&mgrs[i])
	}
}

// peerTable returns a per-peer table of one row per node, each an entry per
// node padded to a multiple of 64 bytes, so rows written by two shards never
// share a cache line, on *buf's memory. An endpoint starts on its row empty
// (peerRow) and grows into it as peers appear (dense.Grow) without allocating.
func peerTable[T any](buf *[]T, nodes int) []T {
	perLine := 64 / int(unsafe.Sizeof(*new(T)))
	*buf = dense.Reuse(*buf, nodes*((nodes+perLine-1)/perLine*perLine))
	return *buf
}

// peerRow returns node i's row of a table of nodes rows: empty, with the row
// as its capacity.
func peerRow[T any](table []T, i, nodes int) []T {
	stride := len(table) / nodes
	return table[i*stride : i*stride : (i+1)*stride]
}

// treeArity derives the GVT reduction-tree branching factor from the
// fabric's stage radix, so the tree's shape follows the topology's natural
// fan-out (firmware.DefaultTreeArity when the config does not set one).
func treeArity(cfg Config) int {
	if cfg.Net.Radix >= 2 {
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
	// Boot: kernels bootstrap, initial sends dispatch. Each node's boot
	// work runs under its own lane so the per-lane sequence draws — and
	// therefore every tie-break — are identical at any shard count.
	for i := range cl.nodes {
		n := &cl.nodes[i]
		n.eng.SetLane(uint32(n.id))
		res := n.kernel.Bootstrap()
		n.park(res.Remote)
		n.finishStep(res, hostmodel.CatEvent)
	}
	for i := range cl.nodes {
		n := &cl.nodes[i]
		n.eng.SetLane(uint32(n.id))
		n.pump()
	}
	if cl.plane != nil {
		rings := make([]fault.RingCtrl, len(cl.nodes))
		engs := make([]*des.Engine, len(cl.nodes))
		for i := range cl.nodes {
			rings[i] = &cl.nodes[i].nicDev
			engs[i] = cl.nodes[i].eng
		}
		cl.plane.InstallRings(rings, engs, cl.nodeBusy)
		cl.plane.Start()
	}
	cl.group.Run(cl.cfg.MaxModelTime)
	if pending := cl.group.Pending(); pending > 0 {
		return nil, fmt.Errorf("core: run exceeded MaxModelTime=%v (pending=%d)",
			cl.cfg.MaxModelTime, pending)
	}
	for i := range cl.nodes {
		n := &cl.nodes[i]
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

// nodeBusy reports whether one node still has real model work: the fault
// plane's episode timers re-arm on this probe. It deliberately excludes
// eng.Pending() — counting the plane's own timers would keep the episode
// chains alive forever and run the model to the horizon. The probe is per
// node (not cluster-wide) because it fires on the node's shard engine and
// must not read state owned by other shards.
func (cl *Cluster) nodeBusy(node int) bool {
	n := &cl.nodes[node]
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
// timestamps of kernel output parked in outgoing (emitted by the kernel,
// not yet handed to the protocol stack — the only messages the checker's
// in-transit map cannot see yet).
func (cl *Cluster) invariantFloor() vtime.VTime {
	floor := vtime.Infinity
	for i := range cl.nodes {
		n := &cl.nodes[i]
		if lvt := n.kernel.NextTS(); lvt < floor {
			floor = lvt
		}
		for _, ev := range n.outgoing.Live() {
			if ev.RecvTS < floor {
				floor = ev.RecvTS
			}
		}
	}
	return floor
}

// runQuiescenceChecks feeds the drained cluster's final state to the
// invariant oracles: per-pair credit conservation, BIP gap accounting
// against the NIC drop records, ledger drain, anti annihilation, and
// message conservation. Every window ends at the barrier's fold, so the
// logs are already folded.
func (cl *Cluster) runQuiescenceChecks() {
	ck := cl.checker
	window := mpich.DefaultConfig().Window
	for i := range cl.nodes {
		s := &cl.nodes[i]
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
		for j := range cl.nodes {
			r := &cl.nodes[j]
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
		n := &cl.nodes[cl.rows.Dir.Home(id)]
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
			n.mgr.OnIdle() //nicwarp:alloc GVT manager dispatch, once per idle transition
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
	// Park the step's remote sends before OnProcessed: a root manager can
	// initiate a GVT computation there, which must bound them (OutboundMin),
	// and a commit there calls into the kernel, which reuses res.Remote. (A
	// commit inside OnProcessed happens only on a one-LP cluster, where no
	// step has remote output, so its count cannot overtake this step's.)
	n.park(res.Remote)
	n.mgr.OnProcessed()
	n.finishStep(res, hostmodel.CatEvent)
	n.pump()
}

// park queues a kernel step's remote events in outgoing. It runs right after
// the kernel call that returned them: remote is kernel scratch, valid only
// until the kernel's next step.
func (n *node) park(remote []*timewarp.Event) {
	for _, ev := range remote {
		n.outgoing.Push(ev)
	}
}

// finishStep charges the communication and rollback costs of a kernel step
// and dispatches its remote messages, which park has queued.
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
	n.sendBatches.Push(len(res.Remote))
	n.cpu.DoArg(cat, cost, nodeSendBatch, n)
}

// nodeSendBatch is the CPU job paired (FIFO) with one pushed count: transmit
// that many of the oldest outgoing events and re-arm the main loop.
func nodeSendBatch(x interface{}) {
	n := x.(*node)
	for k := n.sendBatches.Pop(); k > 0; k-- {
		n.transmitEvent(n.outgoing.Pop())
	}
	n.pump()
}

// transmitEvent converts a kernel event into a packet and pushes it down
// the stack. The send overhead was charged by finishStep. The packet comes
// from the engine's pool (fully overwritten here) and the kernel event goes
// back to the kernel pool once its fields are copied out.
func (n *node) transmitEvent(ev *timewarp.Event) {
	kind := proto.KindEvent
	if ev.Sign < 0 {
		kind = proto.KindAnti
		n.antisBuilt.Inc()
	}
	pkt := n.pool.Packet()
	*pkt = proto.Packet{
		Kind:           kind,
		SrcNode:        int32(n.id),
		DstNode:        int32(n.cluster.rows.Dir.Home(ev.Dst)),
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
	n.mgr.OnSent(pkt)
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

// nodeNICDeliver is wired into the NIC: an inbound packet DMAs across the
// bus, then the host absorbs it under interrupt + protocol costs. A packet
// holding a NIC receive slot releases it (HostConsumed) once the host has
// consumed the packet, which is what propagates host congestion back
// through the fabric to the sender.
func nodeNICDeliver(x interface{}, pkt *proto.Packet, holdsSlot bool) {
	n := x.(*node)
	n.inbox.Push(inboundPkt{pkt: pkt, holdsSlot: holdsSlot})
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
	if in.holdsSlot {
		n.nicDev.HostConsumed()
	}
	n.pump()
}

// OutboundMin returns the minimum send timestamp over every message the
// kernel has emitted that has not yet reached the NIC's transmit-side GVT
// accounting point: kernel output not yet encoded (outgoing — a GVT report
// piggybacked on one event of a batch covers the rest of it), packets
// stalled in MPICH flow control, and packets DMAing toward the NIC
// (outbox). The NIC covers its own transmit queue (firmware queuedSendMin);
// past that, countSend and the receive ledger take over. Scanned only when
// a GVT report is filled, never on the event hot path.
func (n *node) OutboundMin() vtime.VTime {
	min := vtime.Infinity
	for _, ev := range n.outgoing.Live() {
		min = vtime.MinV(min, ev.SendTS)
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

// nodeNICNotify is wired into the NIC: a doorbell crosses the bus and
// interrupts the host.
func nodeNICNotify(x interface{}, tag nic.NotifyTag) {
	n := x.(*node)
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
		n.mgr.OnNotify(d.tag)
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
			n.pool.Release(pkt)
		}
		return
	}
	// An explicit credit message goes back to the pool once OnReceive has
	// booked it (it may leave again as a credit reply), so the dispatch
	// below reads the kind taken before.
	kind := pkt.Kind
	if reply := n.flow.OnReceive(pkt); reply != nil {
		n.sendCreditReply(reply)
	}
	switch kind {
	case proto.KindEvent, proto.KindAnti:
		res := n.deliverEventLike(pkt)
		// The packet is fully decoded and no layer retained it.
		n.pool.Release(pkt)
		n.finishStep(res, hostmodel.CatComm)
	case proto.KindGVTControl:
		c := n.cpu.Costs
		// Token handling includes WARPED's per-object LVT recomputation.
		// The packet is the manager's from here on: no layer below holds
		// it, and the manager sends it on rewritten in place.
		cost := c.GVTHostCompute + vtime.ModelTime(n.numObjects)*c.GVTScanPerObject
		n.cpu.DoArg2(hostmodel.CatGVT, cost, nodeGVTControl, n, pkt)
	case proto.KindCredit:
		// Flow control handled above; the packet is back in the pool.
	default:
		panic(fmt.Sprintf("core: node %d received unexpected packet %v", n.id, pkt))
	}
}

// nodeGVTControl is the CPU job charged for an inbound host GVT token
// finishing: the manager handles the packet and the main loop re-arms.
//
//nicwarp:hotpath one per inbound host GVT control packet
func nodeGVTControl(x, p interface{}) {
	n := x.(*node)
	n.mgr.OnControl(p.(*proto.Packet)) //nicwarp:alloc GVT manager dispatch
	n.pump()
}

// deliverEventLike hands one BIP-accepted event or anti-message (a solo
// packet or a batch sub-message view) to the checker, the GVT manager and
// the kernel, and parks the kernel's remote output. The packet is only
// read: the kernel copies scratchEv at the Deliver boundary, so the caller
// may release or reuse pkt on return.
func (n *node) deliverEventLike(pkt *proto.Packet) timewarp.StepResult {
	if pkt.Kind == proto.KindAnti {
		n.remoteAntisDelivered++
	}
	if ck := n.cluster.checker; ck != nil {
		ck.OnDelivered(n.id, pkt)
	}
	n.mgr.OnReceived(pkt)
	n.scratchEv = timewarp.Event{
		ID:      pkt.EventID,
		Src:     timewarp.ObjectID(pkt.SrcObj),
		Dst:     timewarp.ObjectID(pkt.DstObj),
		SendTS:  pkt.SendTS,
		RecvTS:  pkt.RecvTS,
		Sign:    pkt.Sign(),
		Payload: pkt.Payload,
	}
	res := n.kernel.Deliver(&n.scratchEv)
	n.park(res.Remote)
	return res
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
	n.pool.ReleaseFrame(frame)
}

// CommitGVT installs a new GVT value on this node.
func (n *node) CommitGVT(g vtime.VTime) {
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
	n.kernel.FossilCollect(g)
	reclaimed := n.kernel.Stats.FossilEvents.Value() - before
	c := n.cpu.Costs
	fossilCost := vtime.ModelTime(reclaimed)*c.FossilPerEvent +
		vtime.ModelTime(n.numObjects)*c.FossilPerObject
	n.cpu.DoArg(hostmodel.CatGVT, fossilCost, nil, nil)
	// Keep termination detection alive: if the LP is idle after the
	// commit, let the manager decide whether another computation is needed
	// (it stops at GVT = Infinity).
	if !n.kernel.HasWork() && !g.IsInf() {
		n.eng.AtArg(n.eng.Now()+idleGVTBackoff, idleGVTKick, n)
	}
}

// idleGVTKick is the idle-backoff expiry: if the LP is still quiescent,
// hand the decision to the GVT manager. Top-level with the node threaded
// through so arming the backoff allocates nothing.
func idleGVTKick(x interface{}) {
	n := x.(*node)
	if !n.kernel.HasWork() && !n.loopActive {
		n.mgr.OnIdle()
	}
}

// committedGVT folds the per-node commit high-water marks into the
// cluster-wide value.
func (cl *Cluster) committedGVT() vtime.VTime {
	g := vtime.VTime(-1)
	for i := range cl.nodes {
		g = max(g, cl.nodes[i].finalGVT)
	}
	return g
}

// sample records one time-series point at group clock t, a window
// barrier.
func (cl *Cluster) sample(t vtime.ModelTime) {
	s := Sample{T: t, GVT: cl.committedGVT()}
	for i := range cl.nodes {
		n := &cl.nodes[i]
		s.Processed += n.kernel.Stats.Processed.Value()
		s.RolledBack += n.kernel.Stats.RolledBack.Value()
		s.HostUtil += n.cpu.UtilizationAt(t)
	}
	s.HostUtil /= float64(len(cl.nodes))
	cl.samples = append(cl.samples, s)
}
