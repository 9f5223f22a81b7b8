package timewarp

import "nicwarp/internal/dense"

// EventPool is a free list of Event structs. A cluster keeps one per shard
// and hands it to every kernel on that shard's engine: a kernel's events
// never leave its shard's goroutine, so the pool needs no synchronization.
// A standalone kernel keeps a pool of its own. The zero EventPool is empty
// and ready to use.
//
// Ownership discipline (the invariant that makes pooling safe in a Time
// Warp kernel): every kernel-internal structure — an object's pending heap,
// its history's output chains, the zombie list, the local delivery queue —
// holds its *own* pooled copy of an event; no two structures ever share a
// pointer. Inbound events are copied at the Deliver boundary, and outbound
// events in StepResult.Remote are transferred out of the kernel entirely
// (the caller may hand them back through Kernel.Recycle). An event is
// released exactly when the last structure owning it lets go: at
// annihilation, at fossil collection, and when a rollback's cancelled
// outputs have routed their anti-messages. Every allocation fully
// overwrites the struct, so a recycled event can never leak a stale field
// into identity comparison.
type EventPool struct {
	free     []*Event //nicwarp:owns the pool free list is the release destination itself
	made     int      // events the pool's slabs have allocated
	disabled bool     // property tests disable reuse to prove observational equivalence
}

// eventSlab is the smallest slab one pool miss allocates. A miss allocates
// an eighth of what the pool has made, when that is more: a kernel warming
// up to N live events pays O(log N) allocations, and leaves at most N/8 +
// eventSlab of them unused.
const eventSlab = 32

// get returns an event with unspecified contents; the caller must overwrite
// every field.
//
//nicwarp:hotpath per-event acquisition on the execution fast path (Fig4 allocs/op gate)
func (p *EventPool) get() *Event {
	slab := eventSlab
	if len(p.free) == 0 {
		slab = max(eventSlab, p.made/8)
		p.made += slab
	}
	return dense.Take(&p.free, slab)
}

// put returns an event to the pool. The caller guarantees no live structure
// still references it.
//
//nicwarp:owns the free list is the release destination: e may be handed out again at the next get
//nicwarp:hotpath per-event release on the execution fast path (Fig4 allocs/op gate)
func (p *EventPool) put(e *Event) {
	if p.disabled || e == nil {
		return
	}
	p.free = append(p.free, e) //nicwarp:alloc free-list growth, amortized across the run
}

// release returns an event the kernel owns to the pool.
//
//nicwarp:owns the event goes back to the pool and may be handed out again at the next get
func (k *Kernel) release(e *Event) { k.pool.put(e) }

// copyEvent returns a pooled copy of e.
func (k *Kernel) copyEvent(e *Event) *Event {
	c := k.pool.get()
	*c = *e
	return c
}

// antiOf returns a pooled anti-message for a positive event (the pooled
// counterpart of Event.Anti).
func (k *Kernel) antiOf(e *Event) *Event {
	if e.Sign != 1 {
		panic("timewarp: Anti of a non-positive event")
	}
	a := k.pool.get()
	*a = *e
	a.Sign = -1
	a.inext = nil // e's link in its output chain
	return a
}

// Recycle returns an event that the kernel handed out via StepResult.Remote
// to the kernel's pool. Callers that convert remote events into packets may
// recycle them once the conversion is done; callers that do not recycle
// simply leave the events to the garbage collector. The caller must not
// retain ev after Recycle.
//
//nicwarp:owns the event goes back to the pool and may be handed out again at the next send
func (k *Kernel) Recycle(ev *Event) { k.pool.put(ev) }
