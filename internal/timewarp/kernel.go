package timewarp

import (
	"fmt"

	"nicwarp/internal/d4heap"
	"nicwarp/internal/dense"
	"nicwarp/internal/stats"
	"nicwarp/internal/vtime"
)

// Config parameterizes a Kernel (one LP).
type Config struct {
	// LP is this kernel's logical-process id (its node in the cluster):
	// IsLocal compares an object's home in the directory with it.
	LP int
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
}

// snapshot is one state-saving record: the application state plus the
// kernel-managed per-object state (the send sequence counter, which must
// roll back so re-execution regenerates identical event IDs).
type snapshot struct {
	app     interface{}
	sendSeq uint64
}

// histEntry is one execution-history record, 32 bytes: the executed event
// and the state snapshot taken before it ran. The positives the execution
// sent, held for anti-generation, form a chain in send order linked through
// Event.inext and headed by the executed event's own inext: neither an
// event in history nor an output copy is pending, so neither needs the
// field for the identity index. The record holds no slice, so pushing one
// never allocates, and a send links its copy without allocating either.
type histEntry struct {
	ev    *Event //nicwarp:owns history record and, through its inext, its sent positives; released by fossil collection or returned on rollback
	state snapshot
}

// objRuntime carries the kernel bookkeeping for one local object.
type objRuntime struct {
	id  ObjectID
	obj Object

	// pending is the unprocessed-input queue: a binary index-min heap under
	// the event total order (binary, not 4-ary, to preserve structural tie
	// order — see pendHeap). Kernel.pindex indexes it together with every
	// other object's; the pair is maintained exclusively through
	// Kernel.pendPush/pendPop/pendRemove so membership can never diverge.
	pending pendHeap

	// hist is the execution history in execution (total) order: executions
	// push at the tail, fossil collection drops from the head in
	// O(reclaimed), rollback drops from the tail. Each entry's event heads
	// its own output chain, so the sent positives move exactly as hist does.
	hist dense.Queue[histEntry]

	// reuser is obj's StateReuser side (nil when obj does not implement
	// it): vacate hands it each snapshot no history entry references any
	// more.
	reuser StateReuser

	sendSeq uint64

	zombies     *Event //nicwarp:owns unmatched anti-messages chained through inext; recycled on annihilation or fossil collection
	fossilCount int    // history entries already reclaimed

	idx       uint32               // index in Kernel.order; the object's id in the scheduler heap
	firstPend [firstSlots]pendSlot // where pending starts (Bootstrap)
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

// pendPush inserts an event into o's pending queue and the kernel's
// identity index. The index chain is newest-first; order within a chain is
// irrelevant because lookups match on full identity. A pending event is
// addressed to its owner — the fact that lets the scheduler order objects
// by (head.RecvTS, id) alone (see schedKey).
func (k *Kernel) pendPush(o *objRuntime, ev *Event) {
	if ev.Dst != o.id {
		panic(fmt.Sprintf("timewarp: %v queued on object %d", ev, o.id))
	}
	k.pindex.add(ev)
	o.pending.Push(ev)
}

// pendPop removes and returns o's lowest pending event.
func (k *Kernel) pendPop(o *objRuntime) *Event {
	ev := o.pending.Pop()
	k.pindex.del(ev)
	return ev
}

// pendRemove removes a specific event (found via pendFind) from o's pending
// queue in O(log n) using its intrusive heap position.
func (k *Kernel) pendRemove(o *objRuntime, ev *Event) {
	o.pending.Remove(int(ev.pos))
	k.pindex.del(ev)
}

// pendFind returns the pending positive identical to ev (which may be the
// anti-message form: identity ignores Sign), or nil. O(1) expected.
// Identity includes Dst, so the match is on the destination's queue.
func (k *Kernel) pendFind(ev *Event) *Event {
	return k.pindex.find(ev)
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
	// Remote holds events (positive and anti) destined for other LPs, in
	// emission order. The slice is the kernel's scratch, valid until the
	// next ProcessOne or Deliver; the events are the caller's, who may
	// return them to the kernel's pool with Recycle.
	Remote []*Event //nicwarp:owns events transfer to the caller, who recycles via Recycle; the slice is kernel scratch
	// Rollbacks is the number of rollback episodes triggered.
	Rollbacks int
	// UndoneEvents is the number of executed events undone.
	UndoneEvents int
	// AntisEmitted counts anti-messages emitted (local and remote).
	AntisEmitted int
}

// Kernel is one LP: a set of simulation objects executing optimistically.
type Kernel struct {
	lp  int32
	dir *Directory // where each object lives: its LP and its index in order
	// order holds every object's runtime by value, in registration order.
	// AddObject precedes Bootstrap, so nothing holds an *objRuntime while
	// the slice can still grow.
	order  []objRuntime
	sched  d4heap.Heap // every object, keyed schedKey, ids index order
	pindex pendIndex   // identity index over every object's pending queue
	pool   *EventPool

	// Per-call scratch, reset by each public entry point. res aliases
	// resVal so begin() allocates nothing; res.Remote views remote, which
	// begin empties, so one backing array serves every step.
	resVal StepResult
	res    *StepResult
	remote []*Event //nicwarp:owns per-call scratch: its events are handed out through StepResult.Remote and nilled by begin
	localQ []*Event //nicwarp:owns per-call scratch, drained before the entry point returns
	// remoteBuf and localBuf are where remote and localQ start, so a step
	// that sends a handful of events allocates neither.
	remoteBuf, localBuf [scratchCap]*Event
	// ctxScratch is the reused Execute context: Execute never nests and no
	// object may retain its Context past the call, so one value serves
	// every step without allocating.
	ctxScratch Context

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

// scratchCap is how many events Kernel.remote and localQ hold before they
// allocate: a step's sends and the antis of a shallow rollback.
const scratchCap = 10

// NewKernel creates an empty LP kernel with a directory and an event pool
// of its own.
func NewKernel(cfg Config) *Kernel {
	k := new(Kernel)
	k.Init(cfg, nil, nil)
	return k
}

// Init sets k up in place as an empty LP kernel taking events from pool.
// With rows, its state starts on the next LP's rows, sized for the objects
// it will register, and it shares their directory; with none, it keeps a
// directory of its own and grows as objects arrive. A nil pool, or
// cfg.DisableEventPool, gives it a pool of its own. A Kernel must not be
// copied once Init has run: its step scratch starts inside it.
func (k *Kernel) Init(cfg Config, rows *Rows, pool *EventPool) {
	if pool == nil || cfg.DisableEventPool {
		pool = &EventPool{disabled: cfg.DisableEventPool}
	}
	*k = Kernel{lp: int32(cfg.LP), pool: pool}
	k.remote, k.localQ = k.remoteBuf[:0], k.localBuf[:0]
	if rows == nil {
		k.dir = new(Directory)
		return
	}
	k.dir = &rows.Dir
	rows.take(k)
}

// AddObject registers a local object. Must be called before Bootstrap.
func (k *Kernel) AddObject(id ObjectID, obj Object) {
	if k.booted {
		panic("timewarp: AddObject after Bootstrap")
	}
	if obj == nil {
		panic("timewarp: AddObject with nil object")
	}
	if id < 0 {
		panic(fmt.Sprintf("timewarp: negative object id %d", id))
	}
	k.dir.grow(int(id) + 1)
	if k.dir.homes[id].lp >= 0 {
		panic(fmt.Sprintf("timewarp: duplicate object %d", id))
	}
	reuser, _ := obj.(StateReuser)
	k.dir.homes[id] = home{lp: k.lp, slot: int32(len(k.order))}
	k.order = append(k.order, objRuntime{id: id, obj: obj, reuser: reuser, idx: uint32(len(k.order))})
}

// IsLocal reports whether the object lives on this LP.
func (k *Kernel) IsLocal(id ObjectID) bool { return k.dir.Home(id) == int(k.lp) }

// local returns the runtime of a local object, or nil.
func (k *Kernel) local(id ObjectID) *objRuntime {
	if !k.IsLocal(id) {
		return nil
	}
	return &k.order[k.dir.homes[id].slot]
}

// begin resets per-call scratch and returns the result accumulator.
func (k *Kernel) begin() *StepResult {
	clear(k.remote)
	k.remote = k.remote[:0]
	k.resVal = StepResult{}
	k.res = &k.resVal
	return k.res
}

// Bootstrap runs Init on every object in registration order and returns the
// initial remote sends. Initial sends are unconditional: they are not
// recorded in any output chain and can never be cancelled.
func (k *Kernel) Bootstrap() StepResult {
	if k.booted {
		panic("timewarp: double Bootstrap")
	}
	k.booted = true
	res := k.begin()
	// The object set is final: every object enters the scheduler idle (on
	// its rows, sized for them all), and every pending heap and history
	// ring starts on slots its runtime carries (one outgrowing them
	// reallocates on its own). The runtimes stay put from here on.
	for i := range k.order {
		o := &k.order[i]
		o.pending.s = append(o.firstPend[:0], o.pending.s...)
		k.sched.Push(o.idx, o.schedKey())
	}
	for i := range k.order {
		o := &k.order[i]
		k.ctxScratch = Context{k: k, st: o, now: 0}
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
// or Infinity if the LP is idle: the LP's LVT, its contribution to GVT.
func (k *Kernel) NextTS() vtime.VTime {
	if !k.HasWork() {
		return vtime.Infinity
	}
	return vtime.VTime(k.sched.MinKey().Hi ^ signBit64)
}

// Quiescent reports whether the LP has no pending events and no unmatched
// anti-messages.
func (k *Kernel) Quiescent() bool {
	for i := range k.order {
		if o := &k.order[i]; o.pending.Len() > 0 || o.zombies != nil {
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
	for i := range k.order {
		for z := k.order[i].zombies; z != nil; z = z.inext {
			total++
		}
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
	o := &k.order[k.sched.Min()]
	ev := k.pendPop(o)
	k.fixSched(o)

	// State saving (period 1, the WARPED default).
	e := o.hist.PushSlot()
	*e = histEntry{ev: ev, state: snapshot{app: o.obj.SaveState(), sendSeq: o.sendSeq}}
	k.histCount++
	k.Stats.Processed.Inc()

	// pendPop left ev.inext nil: it heads the execution's output chain.
	k.ctxScratch = Context{k: k, st: o, now: ev.RecvTS, out: &ev.inext}
	o.obj.Execute(&k.ctxScratch, ev)
	k.drainLocal()
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

// FossilCollect releases history strictly below gvt. It sends nothing:
// every cancellation was sent at its rollback.
func (k *Kernel) FossilCollect(gvt vtime.VTime) {
	if gvt < k.committedGVT {
		panic(fmt.Sprintf("timewarp: GVT moved backwards: %v after %v", gvt, k.committedGVT))
	}
	k.committedGVT = gvt
	for i := range k.order {
		o := &k.order[i]
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
			// Release the reclaimed entries' events and output chains and
			// drop them from the head — O(reclaimed), not O(remaining).
			for j := 0; j < q; j++ {
				e := o.hist.Front()
				for out := e.ev.inext; out != nil; {
					next := out.inext
					k.release(out)
					out = next
				}
				k.release(e.ev)
				o.vacate(e)
				o.hist.Drop()
			}
		}
		// A zombie below GVT means its positive can never arrive: a bug in
		// the kernel or in whatever discarded the positive.
		for z := o.zombies; z != nil; z = z.inext {
			if z.RecvTS < gvt {
				panic(fmt.Sprintf("timewarp: zombie anti below GVT: %v (gvt=%v)", z, gvt))
			}
		}
	}
}

// ObjectDigest returns the current state digest of one local object.
func (k *Kernel) ObjectDigest(id ObjectID) uint64 {
	o := k.local(id)
	if o == nil {
		panic(fmt.Sprintf("timewarp: ObjectDigest of non-local object %d", id))
	}
	return o.obj.Digest()
}

// CommittedDigest folds every object's current state into one hash. Only
// meaningful when the simulation has quiesced (all events committed).
func (k *Kernel) CommittedDigest() uint64 {
	h := uint64(0x243F6A8885A308D3)
	for i := range k.order {
		o := &k.order[i]
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
	for i := range k.order {
		o := &k.order[i]
		m[o.id] = o.hist.Len() + o.fossilCount
	}
	return m
}

// CommittedEvents returns the total surviving event executions across all
// local objects.
func (k *Kernel) CommittedEvents() int {
	n := 0
	for i := range k.order {
		n += k.order[i].hist.Len() + k.order[i].fossilCount
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

	if c.out == nil {
		// Initial sends are recorded nowhere and routed directly; route
		// takes ownership.
		k.route(ev)
		return
	}
	// The executing entry's output chain keeps its own copy, linked at the
	// tail (for rollback cancellation); routing gets another. The two
	// copies are what lets fossil collection release the chain without
	// racing the in-flight message.
	*c.out = ev
	c.out = &ev.inext
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
	} else {
		k.remote = append(k.remote, ev)
		k.res.Remote = k.remote
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
	o := k.local(ev.Dst)
	if o == nil {
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
	for p := &o.zombies; *p != nil; p = &(*p).inext {
		if z := *p; sameIdentity(ev, z) {
			*p = z.inext
			k.Stats.Annihilations.Inc()
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
	k.pendPush(o, ev)
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
	if p := k.pendFind(ev); p != nil {
		k.pendRemove(o, p)
		k.fixSched(o)
		k.Stats.Annihilations.Inc()
		k.release(p)
		k.release(ev)
		return
	}
	// Processed positive: roll back to just before it, which reinserts it
	// into pending; then remove it through the same identity index (the
	// former code rescanned the whole pending heap a second time here).
	if i := o.findProcessed(ev); i >= 0 {
		k.rollback(o, i)
		if q := k.pendFind(ev); q != nil {
			k.pendRemove(o, q)
			k.release(q)
		}
		k.fixSched(o)
		k.Stats.Annihilations.Inc()
		k.release(ev)
		return
	}
	// No positive yet: store the zombie; the zombie list takes ownership.
	// Zombies matching one positive are identical, so which one it meets
	// first is invisible: the list is newest first.
	ev.inext = o.zombies
	o.zombies = ev
	k.Stats.Zombies.Inc()
}

// rollback undoes o's execution history from live position p onward:
// restores the saved state, reinserts the undone events as pending, and
// sends an anti-message for every output of the undone executions
// (aggressive cancellation, the paper's policy: "erroneous messages are
// instantly canceled").
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

	// Cancel the undone entries' outputs oldest entry first, each chain in
	// send order: each output copy dies here, right after its anti-message
	// is built. route only queues the antis, so cancelling before the
	// events go back to pending sends them in the same order. The restore
	// above has copied out of entry p's snapshot.
	for i := p; i < n; i++ {
		for out := h[i].ev.inext; out != nil; {
			next := out.inext
			k.route(k.antiOf(out))
			k.release(out)
			out = next
		}
		o.vacate(&h[i])
	}
	// pendPush overwrites each event's inext, the head of a chain now gone.
	for i := n - 1; i >= p; i-- {
		k.pendPush(o, h[i].ev)
	}
	o.hist.DropTail(undone)
	k.fixSched(o)
}

// fixSched re-keys o in the scheduler after its head changed: the one place
// every head change passes through.
func (k *Kernel) fixSched(o *objRuntime) {
	k.sched.Fix(o.idx, o.schedKey())
}
