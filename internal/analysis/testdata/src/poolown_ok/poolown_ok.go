// Package poolown_ok exercises the poolown rule's non-flagging half:
// correctly annotated ownership transfers, sanctioned owning fields, and
// arena pointers re-derived after growth.
package poolown_ok

import "nicwarp/internal/timewarp"

// pool is a miniature event pool with a declared owning free list.
type pool struct {
	free []*timewarp.Event //nicwarp:owns pool free list is the canonical owner of released events
}

// put releases an event back to the pool.
//
//nicwarp:owns put consumes the event; callers must not touch it afterwards
func (p *pool) put(e *timewarp.Event) {
	p.free = append(p.free, e)
}

// get hands an event out; ownership moves to the caller.
func (p *pool) get() *timewarp.Event {
	if n := len(p.free); n > 0 {
		e := p.free[n-1]
		p.free = p.free[:n-1]
		return e
	}
	return &timewarp.Event{}
}

// inspect is unannotated, so it borrows: it retains nothing.
func inspect(e *timewarp.Event) uint64 {
	return e.Payload
}

// releaseLast: reads before the transfer are fine, and the transfer is the
// last touch.
func releaseLast(p *pool, e *timewarp.Event) uint64 {
	t := inspect(e)
	p.put(e)
	return t
}

// reuseAfterRefresh: a released variable reassigned from the pool is live
// again, sub-paths included.
func reuseAfterRefresh(p *pool) uint64 {
	e := p.get()
	p.put(e)
	e = p.get()
	return e.Payload
}

// branchRelease: a transfer inside one branch does not poison the merge
// point (the analyzer is branch-conservative by design).
func branchRelease(p *pool, e *timewarp.Event, done bool) uint64 {
	if done {
		p.put(e)
		return 0
	}
	return inspect(e)
}

// slot is an arena element: value struct, addressed by index.
type slot struct {
	seq uint32
	val int64
}

// table owns a growable arena of slots.
type table struct {
	arena []slot //nicwarp:owns arena slots are addressed by index, never by retained pointer
}

// alloc may grow the arena, invalidating interior pointers.
//
//nicwarp:grows append may reallocate the backing array
func (t *table) alloc() int {
	t.arena = append(t.arena, slot{})
	return len(t.arena) - 1
}

// rederive: the interior pointer is taken again after the growth call, from
// the (possibly new) backing array.
func rederive(t *table, i int) int64 {
	s := &t.arena[i]
	s.val++
	j := t.alloc()
	s = &t.arena[i]
	return s.val + int64(j)
}

// indexOnly: holding the index across growth is always safe.
func indexOnly(t *table) int64 {
	i := t.alloc()
	j := t.alloc()
	return t.arena[i].val + t.arena[j].val
}

// taker is a capability interface: a call through it is dynamic, names no
// ownership fact, and so borrows like any unannotated callee.
type taker interface {
	take(e *timewarp.Event)
}

func readAfterInterfaceCall(t taker, e *timewarp.Event) uint64 {
	t.take(e)
	return e.Payload
}

// holder carries an event without owning it.
type holder struct {
	ev *timewarp.Event
}

// refreshHolder: releasing a field's event and then replacing the holder
// revives every path under it.
func refreshHolder(p *pool, h, next holder) uint64 {
	p.put(h.ev)
	h = next
	return h.ev.Payload
}

// keeper declares its event field an owner.
type keeper struct {
	ev *timewarp.Event //nicwarp:owns keeper holds the event until it releases it
	n  int
}

// keepPositionally: a positional element into an owning field is sanctioned
// like a keyed one.
func keepPositionally(e *timewarp.Event) keeper {
	return keeper{e, 1}
}

// outer promotes keeper's owning ev.
type outer struct {
	*keeper
}

// keepPromoted: the owner annotation follows the field through embedding.
func keepPromoted(o outer, e *timewarp.Event) {
	o.ev = e
}
