// Package des is the hardware-level discrete-event engine: the substitute
// for the paper's physical cluster. Every modeled component — host CPUs,
// PCI buses, NIC processors, links, the switch — advances by scheduling
// callbacks on a deterministic Engine.
//
// An engine is intentionally sequential. The paper's claims are about
// *where* work happens (host vs NIC) and *how much* hardware time it costs,
// not about exploiting host parallelism in the reproduction; a sequential
// deterministic engine makes every experiment exactly reproducible and lets
// the test suite assert bit-identical metrics across runs.
//
// A single run can nevertheless be sharded across cores: a Group ties
// several engines together under a bounded-lag window protocol, each engine
// owning a disjoint set of lanes (one lane per modeled node). Determinism
// survives sharding because every event carries a lane-keyed order key
// (lane, per-lane sequence) instead of a global scheduling counter: a
// lane's event stream is a function of that lane's inputs only, so the
// heap order — and therefore every observable result — is byte-identical
// whether the lanes share one engine or split across many.
//
// Sequential execution per engine also means no synchronization for memory
// reuse: events live in a per-engine arena slice and fired or cancelled
// slots are recycled through an index free list, so steady-state scheduling
// allocates nothing and handles carry 32-bit slot numbers instead of
// pointers. Callers on hot paths use ScheduleArg/AtArg, which thread a
// value receiver through the event instead of capturing a closure.
package des

import (
	"fmt"

	"nicwarp/internal/d4heap"
	"nicwarp/internal/vtime"
)

// laneSeqBits is the width of the per-lane sequence field in an order key;
// the lane id occupies the bits above it.
const laneSeqBits = 48

// maxLanes bounds the lane id so it fits above the sequence bits.
const maxLanes = 1 << (64 - laneSeqBits)

// event is one scheduled callback, stored in the engine's arena and
// addressed by slot index everywhere (heap, TimerRef handles, free list) —
// never by pointer, which may dangle across arena growth. seq is the
// lane-keyed order key (lane << laneSeqBits | per-lane sequence): it breaks
// ties among equal times deterministically regardless of sharding, and is
// unique per incarnation, so it doubles as the generation counter that keeps
// a stale TimerRef from cancelling the slot's next incarnation. The
// event's time is not here: nothing reads it but the heap, whose key carries
// it, and without it the record is one 64-byte cache line. A plain func()
// callback rides in arg behind runClosure.
type event struct {
	seq   uint64 // lane-keyed order key; unique per incarnation
	lane  uint32 // execution lane, restored to curLane when the event fires
	fnArg func(interface{})
	fn2   func(interface{}, interface{}) // two-receiver variant (cross-shard handoff)
	arg   interface{}
	argB  interface{}
}

// TimerRef is a by-value cancellable handle to a scheduled callback: hot
// paths that need cancellation keep it in a struct field at zero cost. The
// zero TimerRef is inert. The handle records the event's generation (its
// seq), which changes when the engine reallocates the slot, so a handle
// kept past its event's firing is inert even after the slot is recycled for
// an unrelated callback.
type TimerRef struct {
	eng *Engine
	ei  uint32
	seq uint64
}

// Cancel prevents the callback from running. Cancelling a zero ref or an
// already fired or cancelled ref is a no-op. Reports whether the
// cancellation took effect. The cancelled event is recycled immediately,
// dropping its callback so the handle cannot pin captured state.
func (r TimerRef) Cancel() bool {
	if r.eng == nil {
		return false
	}
	return r.eng.cancel(r.ei, r.seq)
}

// stagedEv is one cross-shard event parked in the source engine's outbox
// until the window barrier merges it into the destination heap.
type stagedEv struct {
	at   vtime.ModelTime
	ord  uint64
	lane uint32
	fn2  func(interface{}, interface{})
	a, b interface{}
}

// Engine is the deterministic event-driven core. The zero value is not
// usable; construct with NewEngine.
type Engine struct {
	now       vtime.ModelTime
	heap      d4heap.Heap // event list keyed (time, order key), ids are arena slots
	laneSeq   []uint64    // next per-lane sequence, indexed by lane
	curLane   uint32      // lane of the currently executing event
	running   bool
	processed uint64
	arena     []event  // every event ever scheduled, addressed by slot index
	free      []uint32 // recycled arena slots, reused LIFO

	// Shard-group wiring (nil/zero outside a Group). staged is indexed by
	// destination shard; each engine appends to its own outbox only, so
	// staging needs no synchronization.
	group  *Group
	shard  int
	staged [][]stagedEv
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{laneSeq: make([]uint64, 1)}
}

// Now returns the current model time.
func (e *Engine) Now() vtime.ModelTime { return e.now }

// Processed returns the number of callbacks executed so far, for diagnostics
// and runaway-detection in tests.
func (e *Engine) Processed() uint64 { return e.processed }

// minAt returns the earliest scheduled time. The event list must be nonempty
// and its root not vacant.
func (e *Engine) minAt() vtime.ModelTime { return vtime.ModelTime(e.heap.MinKey().Hi) }

// SetLane switches the engine's current execution lane. A lane is one
// deterministic sub-stream of events — one modeled node — whose order keys
// are drawn from its own counter; callbacks scheduled while a lane is
// current inherit it. Engines used standalone never call this and stay on
// lane 0, which reproduces the legacy global-FIFO tie-break exactly.
func (e *Engine) SetLane(l uint32) {
	e.ensureLane(l)
	e.curLane = l
}

// ensureLane grows the per-lane sequence table to cover l.
func (e *Engine) ensureLane(l uint32) {
	if l >= maxLanes {
		panic(fmt.Sprintf("des: lane %d exceeds the %d-lane limit", l, maxLanes))
	}
	for uint32(len(e.laneSeq)) <= l {
		e.laneSeq = append(e.laneSeq, 0)
	}
}

// nextOrd draws the next order key from the current lane's counter. Keys
// are unique for the lifetime of the run (the per-lane counter never
// resets), which is what lets seq double as the TimerRef generation check.
func (e *Engine) nextOrd() uint64 {
	l := e.curLane
	s := e.laneSeq[l] + 1
	if s >= 1<<laneSeqBits {
		panic(fmt.Sprintf("des: lane %d sequence overflow", l))
	}
	e.laneSeq[l] = s
	return uint64(l)<<laneSeqBits | s
}

// alloc takes an arena slot from the free list, or grows the arena, and
// stamps it with (ord, lane). The returned index stays valid across arena
// growth; a *event into the arena would not, so pointers to slots never
// outlive the expression that takes them.
func (e *Engine) alloc(ord uint64, lane uint32) uint32 {
	var ei uint32
	if n := len(e.free); n > 0 {
		ei = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		e.arena = append(e.arena, event{}) //nicwarp:alloc arena growth to a new high-water event count, amortized: fired slots are reused first
		ei = uint32(len(e.arena) - 1)
	}
	ev := &e.arena[ei]
	ev.seq = ord
	ev.lane = lane
	return ei
}

// recycle clears a slot's callback state and returns it to the free list.
// Clearing the callbacks and receivers here is what guarantees a fired or
// cancelled event never pins a captured closure or threaded receiver.
func (e *Engine) recycle(ei uint32) {
	ev := &e.arena[ei]
	ev.fnArg = nil
	ev.fn2 = nil
	ev.arg = nil
	ev.argB = nil
	e.free = append(e.free, ei) //nicwarp:alloc free-list growth, bounded by the arena's high-water size
}

// cancel unschedules the event in slot ei if it is still incarnation seq and
// still on the heap: the body of TimerRef.Cancel.
// A cancel issued from inside a callback meets a vacated root, which is
// closed first so remove works on a whole heap.
func (e *Engine) cancel(ei uint32, seq uint64) bool {
	if e.arena[ei].seq != seq || !e.heap.Has(ei) {
		return false
	}
	e.heap.Settle()
	e.heap.Remove(ei)
	e.recycle(ei)
	return true
}

// Schedule runs fn after delay d (which may be zero but not negative) and
// returns a cancelable handle. Callbacks at the same instant run in
// lane-keyed scheduling order.
func (e *Engine) Schedule(d vtime.ModelTime, fn func()) TimerRef {
	if d < 0 {
		panic(fmt.Sprintf("des: Schedule with negative delay %v", d))
	}
	return e.At(e.now+d, fn)
}

// At runs fn at absolute model time t, which must not be in the past.
func (e *Engine) At(t vtime.ModelTime, fn func()) TimerRef {
	if fn == nil {
		panic("des: nil callback")
	}
	return e.AtArgRef(t, runClosure, fn)
}

// runClosure adapts a plain closure to the (fnArg, arg) callback form.
func runClosure(fn interface{}) { fn.(func())() }

// ScheduleArg runs fn(arg) after delay d. Unlike Schedule it captures no
// closure and returns no handle, so steady-state callers allocate nothing:
// fn should be a top-level function and arg a pointer threaded through as
// the receiver.
func (e *Engine) ScheduleArg(d vtime.ModelTime, fn func(interface{}), arg interface{}) {
	if d < 0 {
		panic(fmt.Sprintf("des: ScheduleArg with negative delay %v", d))
	}
	e.AtArg(e.now+d, fn, arg)
}

// AtArg runs fn(arg) at absolute model time t. See ScheduleArg.
func (e *Engine) AtArg(t vtime.ModelTime, fn func(interface{}), arg interface{}) {
	if fn == nil {
		panic("des: nil callback")
	}
	ev := &e.arena[e.at(t)]
	ev.fnArg = fn
	ev.arg = arg
}

// ScheduleArgRef is ScheduleArg with a cancellable by-value handle: it
// allocates nothing beyond the pooled event.
func (e *Engine) ScheduleArgRef(d vtime.ModelTime, fn func(interface{}), arg interface{}) TimerRef {
	if d < 0 {
		panic(fmt.Sprintf("des: ScheduleArgRef with negative delay %v", d))
	}
	return e.AtArgRef(e.now+d, fn, arg)
}

// AtArgRef is AtArg with a cancellable by-value handle. See ScheduleArgRef.
func (e *Engine) AtArgRef(t vtime.ModelTime, fn func(interface{}), arg interface{}) TimerRef {
	if fn == nil {
		panic("des: nil callback")
	}
	ei := e.at(t)
	ev := &e.arena[ei]
	ev.fnArg = fn
	ev.arg = arg
	return TimerRef{eng: e, ei: ei, seq: ev.seq}
}

// ScheduleArg2 runs fn(a, b) after delay d on the current lane: the
// two-receiver closure-free variant for pipelines that thread a component
// and a payload without a wrapper struct.
func (e *Engine) ScheduleArg2(d vtime.ModelTime, fn func(interface{}, interface{}), a, b interface{}) {
	if d < 0 {
		panic(fmt.Sprintf("des: ScheduleArg2 with negative delay %v", d))
	}
	if fn == nil {
		panic("des: nil callback")
	}
	ev := &e.arena[e.at(e.now+d)]
	ev.fn2 = fn
	ev.arg = a
	ev.argB = b
}

// AtCross schedules fn(a, b) at absolute model time t on engine dst,
// executing on the given lane (the destination node's lane). The order key
// is drawn from the *source* engine's current lane, so the destination's
// heap order is a pure function of (t, source lane, source sequence) — the
// deterministic merge rule that keeps sharded execution byte-identical to
// serial.
//
// An event bound for another lane must land at least the group lookahead
// past now, whether or not that lane shares the engine: that is the
// contract the window protocol rests on, checked at every shard count. It
// also keeps a cross-engine event out of the window it was sent in, since
// now is at least the window's start. When dst is the scheduling engine
// itself the event is inserted directly; otherwise both engines must belong
// to the same Group, and the event is staged in the source's outbox and
// merged into dst's heap at the next window barrier.
func (e *Engine) AtCross(dst *Engine, lane uint32, t vtime.ModelTime, fn func(interface{}, interface{}), a, b interface{}) {
	if fn == nil {
		panic("des: nil callback")
	}
	if t < e.now {
		panic(fmt.Sprintf("des: AtCross(%v) is before now (%v)", t, e.now))
	}
	if (dst != e || lane != e.curLane) && e.group != nil && t < e.now+e.group.lookahead {
		panic(fmt.Sprintf("des: event for lane %d at %v undercuts now %v + lookahead %v (lookahead violation)",
			lane, t, e.now, e.group.lookahead))
	}
	ord := e.nextOrd()
	if dst == e {
		e.ensureLane(lane)
		ei := e.insert(eventKey(t, ord), lane)
		ev := &e.arena[ei]
		ev.fn2 = fn
		ev.arg = a
		ev.argB = b
		return
	}
	if e.group == nil || e.group != dst.group {
		panic("des: AtCross between engines that do not share a Group")
	}
	e.staged[dst.shard] = append(e.staged[dst.shard], stagedEv{at: t, ord: ord, lane: lane, fn2: fn, a: a, b: b})
}

// at validates t and pushes a fresh event slot for it on the current lane.
func (e *Engine) at(t vtime.ModelTime) uint32 {
	if t < e.now {
		panic(fmt.Sprintf("des: At(%v) is before now (%v)", t, e.now))
	}
	return e.insert(eventKey(t, e.nextOrd()), e.curLane)
}

// eventKey builds the heap key of an event at time t with order key ord.
// The heap compares unsigned, which is the signed (time, ord) order only
// because no time is negative: every caller has already checked t against a
// nonnegative clock, finish time or horizon, and this is where that is
// asserted.
func eventKey(t vtime.ModelTime, ord uint64) d4heap.Key {
	if t < 0 {
		panic(fmt.Sprintf("des: event at negative time %d", int64(t)))
	}
	return d4heap.Key{Hi: uint64(t), Lo: ord}
}

// insert allocates a slot for key k on the given lane and pushes it on the
// heap. The key need not be freshly drawn: a Resource reserves each job's
// key at submit and inserts it only when the job reaches the head of the
// line.
//
//nicwarp:hotpath every scheduled event passes through here
func (e *Engine) insert(k d4heap.Key, lane uint32) uint32 {
	ei := e.alloc(k.Lo, lane)
	e.heap.Push(ei, k)
	return ei
}

// Run executes callbacks in time order until the event list is empty or the
// clock would pass limit. It returns the final clock value. Events exactly
// at limit still run. Run may be called repeatedly with growing limits.
func (e *Engine) Run(limit vtime.ModelTime) vtime.ModelTime {
	if e.running {
		panic("des: reentrant Run")
	}
	e.running = true
	defer func() {
		e.running = false
		e.heap.Settle() // a callback that panicked left the root vacated
	}()
	for e.heap.Len() > 0 {
		at := e.minAt()
		if at > limit {
			break
		}
		e.fire(at)
	}
	return e.now
}

// runWindow executes callbacks strictly below horizon h. It is the
// per-round body of the Group protocol: cross-shard events produced while
// it runs are staged (never delivered), so engines in the same window never
// touch each other's state.
func (e *Engine) runWindow(h vtime.ModelTime) {
	defer e.heap.Settle()
	for e.heap.Len() > 0 {
		at := e.minAt()
		if at >= h {
			break
		}
		e.fire(at)
	}
}

// Step executes exactly one callback if any is pending and reports whether
// one ran. Used by tests that need fine-grained control.
func (e *Engine) Step() bool {
	if e.heap.Len() == 0 {
		return false
	}
	defer e.heap.Settle()
	e.fire(e.minAt())
	return true
}

// fire advances the clock to at — the root event's time — and runs that
// event: the root is vacated (not popped: see d4heap), the slot recycled,
// and the callback invoked on its lane; the hole the callback's own
// scheduling did not refill is closed after it returns. Recycling first
// lets that scheduling reuse the slot; a stale TimerRef stays inert
// because the slot is off the heap until its next incarnation restamps seq.
// The callback state is read out before the callback runs: its own
// scheduling may grow the arena, which would invalidate any pointer into it.
//
//nicwarp:hotpath the event loop body
func (e *Engine) fire(at vtime.ModelTime) {
	ei := e.heap.Take()
	e.now = at
	e.processed++
	ev := &e.arena[ei]
	fnArg, fn2, a, b := ev.fnArg, ev.fn2, ev.arg, ev.argB
	e.curLane = ev.lane
	e.recycle(ei)
	if fn2 != nil {
		fn2(a, b) //nicwarp:alloc callback dispatch; the callee is held to its own hot root, not this one
	} else {
		fnArg(a) //nicwarp:alloc callback dispatch; the callee is held to its own hot root, not this one
	}
	e.heap.Settle()
}
