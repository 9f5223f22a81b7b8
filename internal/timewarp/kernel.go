package timewarp

import (
	"fmt"

	"nicwarp/internal/d4heap"
	"nicwarp/internal/dense"
	"nicwarp/internal/stats"
	"nicwarp/internal/vtime"
)

// CancellationPolicy selects how rollbacks cancel erroneously sent messages.
type CancellationPolicy int

// Cancellation policies.
const (
	// Aggressive sends anti-messages for every cancelled output the moment
	// a rollback happens — the policy the paper uses ("we use aggressive
	// cancellation [27] where erroneous messages are instantly canceled").
	// Early cancellation on the NIC requires this policy; its correctness
	// argument depends on the host emitting the anti-message promptly.
	Aggressive CancellationPolicy = iota
	// Lazy defers cancellation: cancelled outputs are kept and compared
	// against the sends of re-execution; only outputs that re-execution
	// does not regenerate are cancelled — and the deciding comparison is
	// synchronized with GVT advancement (see lazyFlush). Provided as the
	// ablation baseline from Rajan & Wilsey's lazy/aggressive comparison
	// the paper cites.
	Lazy
)

// String implements fmt.Stringer.
func (p CancellationPolicy) String() string {
	if p == Lazy {
		return "lazy"
	}
	return "aggressive"
}

// Config parameterizes a Kernel (one LP).
type Config struct {
	// LP is this kernel's logical-process id (its node in the cluster).
	LP int
	// Cancellation selects aggressive or lazy cancellation.
	Cancellation CancellationPolicy
	// DisableEventPool turns off event reuse: every event is freshly
	// allocated and released events go to the garbage collector. Pooling
	// is observationally invisible, so this only exists for the property
	// test that proves it (and for bisecting a suspected pooling bug).
	DisableEventPool bool
}

// Stats aggregates kernel counters for one LP.
type Stats struct {
	Processed     stats.Counter // event executions, including later-undone ones
	RolledBack    stats.Counter // event executions undone by rollbacks
	Rollbacks     stats.Counter // rollback episodes
	Stragglers    stats.Counter // positive events arriving in the processed past
	Annihilations stats.Counter // positive/anti pairs destroyed
	Zombies       stats.Counter // antis stored awaiting their positive
	FossilEvents  stats.Counter // history entries reclaimed
	LazyHits      stats.Counter // re-sends matched under lazy cancellation
	LazyAntis     stats.Counter // lazy entries eventually cancelled
}

// snapshot is one state-saving record: the application state plus the
// kernel-managed per-object state (the send sequence counter, which must
// roll back so re-execution regenerates identical event IDs).
type snapshot struct {
	app     interface{}
	sendSeq uint64
}

// histEntry is one execution-history record: the executed event, the state
// snapshot taken before it ran, and how many positives it sent. The sent
// positives themselves are its row of the object's outs ring (see
// objRuntime.outs): the record holds no slice, so pushing one never
// allocates.
type histEntry struct {
	ev    *Event //nicwarp:owns history record; released by fossil collection or returned on rollback
	state snapshot
	nOut  int // length of this entry's row in objRuntime.outs
}

// objRuntime carries the kernel bookkeeping for one local object.
type objRuntime struct {
	id  ObjectID
	obj Object

	// pending is the unprocessed-input queue: a binary index-min heap under
	// the event total order (binary, not 4-ary, to preserve structural tie
	// order — see pendHeap). pindex is its identity index (see pendIndex).
	// Together they turn anti-message and lazy-cancellation lookups into
	// O(1) find + O(log n) remove; the pair is maintained exclusively
	// through pendPush/pendPop/pendRemove so membership can never diverge.
	pending pendHeap
	pindex  pendIndex

	// hist is the execution history in execution (total) order: executions
	// push at the tail, fossil collection drops from the head in
	// O(reclaimed), rollback drops from the tail.
	hist dense.FIFO[histEntry]
	// outs holds the positives sent by the live history entries, held for
	// anti-generation: one row per entry, rows contiguous and in history
	// order, each as long as its entry's nOut. Sends append to the newest
	// row at the tail, fossil collection pops whole rows from the head and
	// rollback drops them from the tail, so the ring moves exactly as hist
	// does and a steady-state send allocates nothing.
	outs dense.FIFO[*Event] //nicwarp:owns sent positives held for anti-generation; released on commit or once their anti is routed

	// reuser is obj's StateReuser side (nil when obj does not implement
	// it): vacate hands it each snapshot no history entry references any
	// more.
	reuser StateReuser

	sendSeq uint64

	lazyPending []*Event //nicwarp:owns cancelled outputs awaiting re-send match (lazy mode); recycled on commit
	zombies     []*Event //nicwarp:owns unmatched anti-messages; recycled on annihilation or fossil collection
	fossilCount int      // history entries already reclaimed

	idx uint32 // index in Kernel.order; the object's id in the scheduler heap
}

// vacate hands the snapshot of a history entry about to leave the history
// back to its object. After a rollback this runs once RestoreState has
// copied out of the snapshot.
//
//nicwarp:hotpath one per fossil-collected or undone history entry
func (o *objRuntime) vacate(e *histEntry) {
	if o.reuser != nil {
		o.reuser.ReleaseState(e.state.app) //nicwarp:alloc the object's free list grows to its history's high-water depth, amortized
	}
}

// lastHist returns the newest live history entry.
func (o *objRuntime) lastHist() *histEntry {
	h := o.hist.Live()
	return &h[len(h)-1]
}

// pendPush inserts an event into the pending queue and its identity index.
// The index chain is newest-first; order within a chain is irrelevant
// because lookups match on full identity. A pending event is addressed to
// its owner — the fact that lets the scheduler order objects by
// (head.RecvTS, id) alone (see schedKey).
func (o *objRuntime) pendPush(ev *Event) {
	if ev.Dst != o.id {
		panic(fmt.Sprintf("timewarp: %v queued on object %d", ev, o.id))
	}
	o.pindex.add(ev)
	o.pending.Push(ev)
}

// pendPop removes and returns the lowest pending event.
func (o *objRuntime) pendPop() *Event {
	ev := o.pending.Pop()
	o.pindex.del(ev)
	return ev
}

// pendRemove removes a specific event (found via pendFind) from the pending
// queue in O(log n) using its intrusive heap position.
func (o *objRuntime) pendRemove(ev *Event) {
	o.pending.Remove(int(ev.pos))
	o.pindex.del(ev)
}

// pendFind returns the pending positive identical to ev (which may be the
// anti-message form: identity ignores Sign), or nil. O(1) expected.
func (o *objRuntime) pendFind(ev *Event) *Event {
	return o.pindex.find(ev)
}

// clock returns the object's local virtual time: the receive timestamp of
// its last executed event, or zero before any execution.
func (o *objRuntime) clock() vtime.VTime {
	if o.hist.Len() == 0 {
		return 0
	}
	return o.lastHist().ev.RecvTS
}

// The scheduler heap compares unsigned. XOR with the sign bit maps a signed
// value onto the unsigned one with the same order.
const (
	signBit64 = 1 << 63
	signBit32 = 1 << 31
	// idleLo marks an idle object's key: above every ObjectID, so an idle
	// object sorts after an event at Infinity too, and below the heap's
	// all-ones sentinel.
	idleLo = 1 << 32
)

// schedKey is the object's place in the LP scheduler: (head.RecvTS, id), or
// (Infinity, idle|id) with nothing pending. Heads of distinct objects differ
// in Dst (pendPush), so comparing (RecvTS, Dst) orders them exactly as
// Event.Compare does without reading past its second step; idle objects
// sort last, as the scheduler never selects them, and apart.
func (o *objRuntime) schedKey() d4heap.Key {
	id := uint64(uint32(o.id) ^ signBit32)
	if o.pending.Len() == 0 {
		return d4heap.Key{Hi: uint64(vtime.Infinity) ^ signBit64, Lo: idleLo | id}
	}
	return d4heap.Key{Hi: uint64(o.pending.Min().RecvTS) ^ signBit64, Lo: id}
}

// StepResult reports what a kernel operation did, in counts the cluster
// layer converts into host CPU costs, plus the remote messages to ship.
type StepResult struct {
	// Executed is the number of events executed (0 or 1; local cascades do
	// not execute events, they only enqueue).
	Executed int
	// Remote holds events (positive and anti) destined for other LPs, in
	// emission order. Ownership transfers to the caller: the kernel keeps
	// no reference, and the caller may return the events to the kernel's
	// pool with Recycle once it is done with them.
	Remote []*Event //nicwarp:owns ownership transfers to the caller, who recycles via Recycle
	// Rollbacks is the number of rollback episodes triggered.
	Rollbacks int
	// UndoneEvents is the number of executed events undone.
	UndoneEvents int
	// AntisEmitted counts anti-messages emitted (local and remote).
	AntisEmitted int
	// LocalDeliveries counts events delivered object-to-object within the
	// LP.
	LocalDeliveries int
	// Annihilated reports that a delivered message annihilated against its
	// counterpart (or a zombie).
	Annihilated bool
}

// Kernel is one LP: a set of simulation objects executing optimistically.
type Kernel struct {
	cfg   Config
	objs  map[ObjectID]*objRuntime
	order []*objRuntime
	sched d4heap.Heap // every object, keyed schedKey, ids index order
	pool  eventPool

	// Per-call scratch, reset by each public entry point. res aliases
	// resVal so begin() allocates nothing; the Remote slice inside starts
	// nil each call because its ownership transfers to the caller.
	resVal StepResult
	res    *StepResult
	localQ []*Event //nicwarp:owns per-call scratch, drained before the entry point returns
	// ctxScratch is the reused Execute context: Execute never nests and no
	// object may retain its Context past the call, so one value serves
	// every step without allocating.
	ctxScratch Context
	// remoteSpare holds backing arrays handed back via RecycleRemoteBuf;
	// route drafts one for a step's first remote emission instead of
	// growing a fresh Remote slice from nil.
	remoteSpare [][]*Event //nicwarp:owns spare backing arrays; RecycleRemoteBuf nils every slot on hand-back

	booted bool
	// histCount is the total number of retained processed events across all
	// objects (uncollected history). The hardware model charges a memory
	// penalty that grows with it — the mechanism behind the paper's
	// observation that execution time rises when GVT (and thus fossil
	// collection) runs infrequently.
	histCount int
	// committedGVT is the highest GVT installed by FossilCollect. Any
	// message arriving below it indicates an unsafe GVT estimate — the
	// exact failure mode a broken GVT algorithm produces — so the kernel
	// treats it as a fatal invariant violation rather than corrupting
	// results silently.
	committedGVT vtime.VTime

	Stats Stats
}

// NewKernel creates an empty LP kernel.
func NewKernel(cfg Config) *Kernel {
	return &Kernel{
		cfg:  cfg,
		objs: make(map[ObjectID]*objRuntime),
		pool: eventPool{disabled: cfg.DisableEventPool},
	}
}

// AddObject registers a local object. Must be called before Bootstrap.
func (k *Kernel) AddObject(id ObjectID, obj Object) {
	if k.booted {
		panic("timewarp: AddObject after Bootstrap")
	}
	if obj == nil {
		panic("timewarp: AddObject with nil object")
	}
	if _, dup := k.objs[id]; dup {
		panic(fmt.Sprintf("timewarp: duplicate object %d", id))
	}
	o := &objRuntime{id: id, obj: obj, idx: uint32(len(k.order))}
	o.reuser, _ = obj.(StateReuser)
	k.objs[id] = o
	k.order = append(k.order, o)
}

// IsLocal reports whether the object lives on this LP.
func (k *Kernel) IsLocal(id ObjectID) bool {
	_, ok := k.objs[id]
	return ok
}

// begin resets per-call scratch and returns the result accumulator.
func (k *Kernel) begin() *StepResult {
	k.resVal = StepResult{}
	k.res = &k.resVal
	return k.res
}

// Bootstrap runs Init on every object in registration order and returns the
// initial remote sends. Initial sends are unconditional: they are not
// recorded in any output row and can never be cancelled.
func (k *Kernel) Bootstrap() StepResult {
	if k.booted {
		panic("timewarp: double Bootstrap")
	}
	k.booted = true
	res := k.begin()
	// The object set is final: the scheduler takes its arrays at their one
	// size and every object enters it idle.
	k.sched.Grow(len(k.order))
	for _, o := range k.order {
		k.sched.Push(o.idx, o.schedKey())
	}
	for _, o := range k.order {
		k.ctxScratch = Context{k: k, st: o, now: 0, inInit: true}
		o.obj.Init(&k.ctxScratch)
	}
	k.drainLocal()
	return *res
}

// HasWork reports whether any object has an unprocessed event.
func (k *Kernel) HasWork() bool {
	return k.sched.Len() > 0 && k.sched.MinKey().Lo < idleLo
}

// NextTS returns the timestamp of the lowest unprocessed event on this LP,
// or Infinity if the LP is idle. This is the LP's LVT contribution for GVT
// in aggressive mode.
func (k *Kernel) NextTS() vtime.VTime {
	if !k.HasWork() {
		return vtime.Infinity
	}
	return vtime.VTime(k.sched.MinKey().Hi ^ signBit64)
}

// LVT returns the LP's lower bound on future message timestamps: the lowest
// unprocessed event, further lowered by any lazy-cancellation entries whose
// anti-messages are still unsent. GVT computed from this value is safe under
// both cancellation policies.
func (k *Kernel) LVT() vtime.VTime {
	lvt := k.NextTS()
	if k.cfg.Cancellation == Lazy {
		for _, o := range k.order {
			for _, e := range o.lazyPending {
				lvt = vtime.MinV(lvt, e.RecvTS)
			}
		}
	}
	return lvt
}

// Quiescent reports whether the LP has no pending events, no deferred lazy
// cancellations and no unmatched anti-messages.
func (k *Kernel) Quiescent() bool {
	for _, o := range k.order {
		if o.pending.Len() > 0 || len(o.lazyPending) > 0 || len(o.zombies) > 0 {
			return false
		}
	}
	return true
}

// ZombieCount returns the number of unmatched anti-messages currently
// parked across the LP's objects. At quiescence every anti must have
// annihilated its positive, so the invariant checker requires this to be
// zero.
func (k *Kernel) ZombieCount() int {
	total := 0
	for _, o := range k.order {
		total += len(o.zombies)
	}
	return total
}

// ProcessOne executes the lowest-timestamp unprocessed event on the LP
// (WARPED's lowest-timestamp-first scheduling). Panics if the LP is idle;
// callers gate on HasWork.
func (k *Kernel) ProcessOne() StepResult {
	if !k.HasWork() {
		panic("timewarp: ProcessOne on idle LP")
	}
	res := k.begin()
	o := k.order[k.sched.Min()]
	ev := o.pendPop()
	k.fixSched(o)

	// State saving (period 1, the WARPED default).
	o.hist.Push(histEntry{ev: ev, state: snapshot{app: o.obj.SaveState(), sendSeq: o.sendSeq}})
	k.histCount++
	k.Stats.Processed.Inc()
	res.Executed = 1

	k.ctxScratch = Context{k: k, st: o, now: ev.RecvTS}
	o.obj.Execute(&k.ctxScratch, ev)
	k.drainLocal()
	// Lazy cancellation: entries whose send time the object's clock has
	// passed were definitively not regenerated by re-execution; cancel
	// them now. (FossilCollect performs the same flush against GVT for
	// objects that have gone idle.)
	if k.cfg.Cancellation == Lazy {
		k.lazyFlush(o, o.clock())
		k.drainLocal()
	}
	return *res
}

// Deliver accepts a message from another LP (or, during tests, any
// externally produced event) and fully integrates it: annihilation,
// straggler rollback, enqueueing, and any local cancellation cascade. The
// kernel copies ev at this boundary: the caller keeps ownership of (and may
// reuse) the value it passed in.
func (k *Kernel) Deliver(ev *Event) StepResult {
	res := k.begin()
	k.deliverOne(k.copyEvent(ev))
	k.drainLocal()
	return *res
}

// HistoryEvents returns the number of processed events whose state and
// output history is still retained (not yet fossil-collected).
func (k *Kernel) HistoryEvents() int { return k.histCount }

// FossilCollect releases history strictly below gvt and flushes lazy
// cancellations that can no longer be matched. It returns the (possibly
// nonempty, under lazy cancellation) step result.
func (k *Kernel) FossilCollect(gvt vtime.VTime) StepResult {
	if gvt < k.committedGVT {
		panic(fmt.Sprintf("timewarp: GVT moved backwards: %v after %v", gvt, k.committedGVT))
	}
	k.committedGVT = gvt
	res := k.begin()
	for _, o := range k.order {
		// First live history index that must be retained.
		h := o.hist.Live()
		lo, hi := 0, len(h)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if h[mid].ev.RecvTS >= gvt {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		if q := lo; q > 0 {
			k.Stats.FossilEvents.Add(int64(q))
			o.fossilCount += q
			k.histCount -= q
			// Release the reclaimed entries' events and output rows and
			// drop them from the head — O(reclaimed), not O(remaining).
			for i := 0; i < q; i++ {
				e := o.hist.Front()
				k.release(e.ev)
				for j := 0; j < e.nOut; j++ {
					k.release(o.outs.Pop())
				}
				o.vacate(e)
				o.hist.Drop()
			}
		}
		if k.cfg.Cancellation == Lazy {
			k.lazyFlush(o, gvt)
		}
		// A zombie below GVT means its positive can never arrive: a bug in
		// the kernel or in whatever discarded the positive.
		for _, z := range o.zombies {
			if z.RecvTS < gvt {
				panic(fmt.Sprintf("timewarp: zombie anti below GVT: %v (gvt=%v)", z, gvt))
			}
		}
	}
	k.drainLocal()
	return *res
}

// ObjectDigest returns the current state digest of one local object.
func (k *Kernel) ObjectDigest(id ObjectID) uint64 {
	o, ok := k.objs[id]
	if !ok {
		panic(fmt.Sprintf("timewarp: ObjectDigest of non-local object %d", id))
	}
	return o.obj.Digest()
}

// CommittedDigest folds every object's current state into one hash. Only
// meaningful when the simulation has quiesced (all events committed).
func (k *Kernel) CommittedDigest() uint64 {
	h := uint64(0x243F6A8885A308D3)
	for _, o := range k.order {
		h = DigestMix(h, uint64(uint32(o.id)))
		h = DigestMix(h, o.obj.Digest())
	}
	return h
}

// ProcessedCounts returns the per-object count of surviving (not undone)
// event executions, including already-fossilled history. At quiescence this
// equals the committed event count, the quantity compared with the
// sequential oracle.
func (k *Kernel) ProcessedCounts() map[ObjectID]int {
	m := make(map[ObjectID]int, len(k.order))
	for _, o := range k.order {
		m[o.id] = o.hist.Len() + o.fossilCount
	}
	return m
}

// CommittedEvents returns the total surviving event executions across all
// local objects.
func (k *Kernel) CommittedEvents() int {
	n := 0
	for _, o := range k.order {
		n += o.hist.Len() + o.fossilCount
	}
	return n
}

// send implements Context.Send.
func (k *Kernel) send(c *Context, dst ObjectID, delay vtime.VTime, payload uint64) {
	o := c.st
	ev := k.pool.get()
	*ev = Event{
		ID:      MakeEventID(o.id, o.sendSeq),
		Src:     o.id,
		Dst:     dst,
		SendTS:  c.now,
		RecvTS:  vtime.Advance(c.now, delay),
		Sign:    1,
		Payload: payload,
	}
	o.sendSeq++

	if c.inInit {
		// Initial sends are recorded nowhere and routed directly; route
		// takes ownership.
		k.route(ev)
		return
	}
	// The executing entry is the newest, so its row is the tail of outs.
	o.lastHist().nOut++
	o.outs.Push(ev)
	// Lazy cancellation: a regenerated send identical to a cancelled
	// one means the original message is still correct; keep it and do
	// not re-send.
	if k.cfg.Cancellation == Lazy && k.lazyMatch(o, ev) {
		k.Stats.LazyHits.Inc()
		return
	}
	// The output row keeps its own copy (for rollback cancellation);
	// routing gets another. The two copies are what lets fossil
	// collection release the row without racing the in-flight message.
	k.route(k.copyEvent(ev))
}

// route sends an event toward its destination: the local delivery queue or
// the remote outbox. route owns ev; local delivery hands it to deliverOne,
// remote emission transfers it to the caller via StepResult.Remote.
func (k *Kernel) route(ev *Event) {
	if ev.Sign < 0 {
		k.res.AntisEmitted++
	}
	if k.IsLocal(ev.Dst) {
		k.localQ = append(k.localQ, ev)
		k.res.LocalDeliveries++
	} else {
		if k.res.Remote == nil {
			if n := len(k.remoteSpare); n > 0 {
				k.res.Remote = k.remoteSpare[n-1]
				k.remoteSpare = k.remoteSpare[:n-1]
			}
		}
		k.res.Remote = append(k.res.Remote, ev)
	}
}

// drainLocal delivers queued intra-LP events until none remain. Deliveries
// can trigger rollbacks that enqueue further local antis, hence the index
// loop (which also keeps the queue's backing array for reuse).
func (k *Kernel) drainLocal() {
	for i := 0; i < len(k.localQ); i++ {
		ev := k.localQ[i]
		k.localQ[i] = nil
		k.deliverOne(ev)
	}
	k.localQ = k.localQ[:0]
}

// sameIdentity reports whether a positive and an anti refer to the same
// message instance.
func sameIdentity(a, b *Event) bool {
	return a.ID == b.ID && a.Src == b.Src && a.Dst == b.Dst &&
		a.SendTS == b.SendTS && a.RecvTS == b.RecvTS && a.Payload == b.Payload
}

// deliverOne integrates one inbound event (positive or anti) into its
// destination object. The kernel owns ev.
func (k *Kernel) deliverOne(ev *Event) {
	o, ok := k.objs[ev.Dst]
	if !ok {
		panic(fmt.Sprintf("timewarp: Deliver for non-local object %d", ev.Dst))
	}
	if ev.Sign > 0 {
		k.deliverPositive(o, ev)
	} else {
		k.deliverAnti(o, ev)
	}
}

// deliverPositive handles an inbound positive event: zombie annihilation,
// straggler rollback, then enqueue.
func (k *Kernel) deliverPositive(o *objRuntime, ev *Event) {
	if ev.RecvTS < k.committedGVT {
		panic(fmt.Sprintf("timewarp: positive event below committed GVT %v: %v", k.committedGVT, ev))
	}
	// An anti-message that arrived first (possible only when the positive
	// was delayed past it, or when early cancellation misfired) annihilates
	// the positive on sight.
	for i, z := range o.zombies {
		if sameIdentity(ev, z) {
			copy(o.zombies[i:], o.zombies[i+1:])
			o.zombies[len(o.zombies)-1] = nil
			o.zombies = o.zombies[:len(o.zombies)-1]
			k.Stats.Annihilations.Inc()
			k.res.Annihilated = true
			k.release(z)
			k.release(ev)
			return
		}
	}
	// Straggler: the event sorts before something already executed.
	if h := o.hist.Live(); len(h) > 0 && ev.Before(h[len(h)-1].ev) {
		k.Stats.Stragglers.Inc()
		lo, hi := 0, len(h)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if ev.Before(h[mid].ev) {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		k.rollback(o, lo)
	}
	o.pendPush(ev)
	k.fixSched(o)
}

// findProcessed returns the live-history index of the processed positive
// identical to ev, or -1. Live history is sorted under the event total
// order (stragglers truncate it before insertion), so the lookup is a
// binary search for the Compare-equal run followed by an identity check
// over that run — which has more than one entry only when observationally
// identical duplicates were both executed.
func (o *objRuntime) findProcessed(ev *Event) int {
	h := o.hist.Live()
	lo, hi := 0, len(h)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if h[mid].ev.Compare(ev) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	for i := lo; i < len(h) && h[i].ev.Compare(ev) == 0; i++ {
		if sameIdentity(h[i].ev, ev) {
			return i
		}
	}
	return -1
}

// deliverAnti handles an inbound anti-message: annihilate an unprocessed
// positive, or roll back and annihilate a processed one, or store a zombie.
func (k *Kernel) deliverAnti(o *objRuntime, ev *Event) {
	if ev.RecvTS < k.committedGVT {
		panic(fmt.Sprintf("timewarp: anti-message below committed GVT %v: %v", k.committedGVT, ev))
	}
	// Unprocessed positive: remove silently — O(1) identity lookup plus an
	// O(log n) indexed heap removal, the host-side cost NIC early
	// cancellation budgets for (the former code scanned the whole pending
	// heap per anti).
	if p := o.pendFind(ev); p != nil {
		o.pendRemove(p)
		k.fixSched(o)
		k.Stats.Annihilations.Inc()
		k.res.Annihilated = true
		k.release(p)
		k.release(ev)
		return
	}
	// Processed positive: roll back to just before it, which reinserts it
	// into pending; then remove it through the same identity index (the
	// former code rescanned the whole pending heap a second time here).
	if i := o.findProcessed(ev); i >= 0 {
		k.rollback(o, i)
		if q := o.pendFind(ev); q != nil {
			o.pendRemove(q)
			k.release(q)
		}
		k.fixSched(o)
		k.Stats.Annihilations.Inc()
		k.res.Annihilated = true
		k.release(ev)
		return
	}
	// No positive yet: store the zombie; the zombie list takes ownership.
	o.zombies = append(o.zombies, ev)
	k.Stats.Zombies.Inc()
}

// rollback undoes o's execution history from live position p onward:
// restores the saved state, reinserts the undone events as pending, and
// cancels the outputs of the undone executions per the cancellation policy.
func (k *Kernel) rollback(o *objRuntime, p int) {
	h := o.hist.Live()
	n := len(h)
	if p >= n {
		return // nothing executed after the straggler point
	}
	k.Stats.Rollbacks.Inc()
	k.res.Rollbacks++
	undone := n - p
	k.Stats.RolledBack.Add(int64(undone))
	k.res.UndoneEvents += undone

	o.obj.RestoreState(h[p].state.app)
	o.sendSeq = h[p].state.sendSeq
	k.histCount -= undone

	for i := n - 1; i >= p; i-- {
		o.pendPush(h[i].ev)
	}
	// The undone entries' rows are the tail of outs. Cancel them oldest
	// first: under aggressive cancellation the output copy dies here, right
	// after its anti-message is built; under lazy it moves to lazyPending.
	rows := 0
	for i := p; i < n; i++ {
		rows += h[i].nOut
		// The event pointer now lives in pending and the restore above has
		// copied out of entry p's snapshot.
		o.vacate(&h[i])
	}
	live := o.outs.Live()
	for _, out := range live[len(live)-rows:] {
		switch k.cfg.Cancellation {
		case Aggressive:
			k.route(k.antiOf(out))
			k.release(out)
		case Lazy:
			o.lazyPending = append(o.lazyPending, out)
		}
	}
	o.outs.DropTail(rows)
	o.hist.DropTail(undone)
	k.fixSched(o)
}

// lazyMatch consumes a lazy-pending entry identical to ev, if one exists.
func (k *Kernel) lazyMatch(o *objRuntime, ev *Event) bool {
	for i, e := range o.lazyPending {
		if sameIdentity(e, ev) {
			copy(o.lazyPending[i:], o.lazyPending[i+1:])
			o.lazyPending[len(o.lazyPending)-1] = nil
			o.lazyPending = o.lazyPending[:len(o.lazyPending)-1]
			k.release(e)
			return true
		}
	}
	return false
}

// lazyFlush cancels lazy entries whose send time is strictly below bound:
// the object's clock (after ProcessOne) or GVT (from FossilCollect) has
// passed them without re-execution regenerating them. Note that lazy
// cancellation is susceptible to rollback echoes under heavy message
// reordering — erroneous computations spread while their cancellation is
// deferred — which is precisely why the paper runs aggressive cancellation;
// the harness tests bound reordering when exercising lazy mode.
func (k *Kernel) lazyFlush(o *objRuntime, bound vtime.VTime) {
	kept := o.lazyPending[:0]
	for _, e := range o.lazyPending {
		if e.SendTS < bound {
			k.route(k.antiOf(e))
			k.Stats.LazyAntis.Inc()
			k.release(e)
		} else {
			kept = append(kept, e)
		}
	}
	for i := len(kept); i < len(o.lazyPending); i++ {
		o.lazyPending[i] = nil
	}
	o.lazyPending = kept
}

// fixSched re-keys o in the scheduler after its head changed: the one place
// every head change passes through.
func (k *Kernel) fixSched(o *objRuntime) {
	k.sched.Fix(o.idx, o.schedKey())
}
