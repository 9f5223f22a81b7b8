// Package poolown_bad exercises the poolown rule's flagging half: reads
// after ownership transfer, escaping stores into undeclared owners, and
// arena interior pointers surviving growth.
package poolown_bad

import "nicwarp/internal/timewarp"

type pool struct {
	free []*timewarp.Event //nicwarp:owns pool free list is the canonical owner of released events
}

//nicwarp:owns put consumes the event
func (p *pool) put(e *timewarp.Event) {
	p.free = append(p.free, e)
}

func (p *pool) get() *timewarp.Event {
	if n := len(p.free); n > 0 {
		e := p.free[n-1]
		p.free = p.free[:n-1]
		return e
	}
	return &timewarp.Event{}
}

// Reading a field of the event after releasing it.
func useAfterRelease(p *pool, e *timewarp.Event) uint64 {
	p.put(e)
	return e.Payload // want `use of e.Payload after release: ownership transferred to put`
}

// Passing the released event to another call.
func doubleRelease(p *pool, e *timewarp.Event) {
	p.put(e)
	p.put(e) // want `use of e after release: ownership transferred to put`
}

// A method expression calls the same method: the transfer is the same.
func releaseByMethodExpr(p *pool, e *timewarp.Event) uint64 {
	(*pool).put(p, e)
	return e.Payload // want `use of e.Payload after release: ownership transferred to put`
}

// A transfer before the branch poisons both arms.
func releaseThenBranch(p *pool, e *timewarp.Event, anti bool) int8 {
	p.put(e)
	if anti {
		return e.Sign // want `use of e.Sign after release: ownership transferred to put`
	}
	return 0
}

type stash struct {
	last *timewarp.Event // no //nicwarp:owns: not a sanctioned owner
	held []*timewarp.Event
}

// Storing a pooled pointer in an undeclared field creates a second owner.
func retainInField(s *stash, e *timewarp.Event) {
	s.last = e // want `pooled \*nicwarp/internal/timewarp.Event stored in field s.last, which is not declared an owner`
}

// Appending into an undeclared slice field is the same leak.
func retainInSlice(s *stash, e *timewarp.Event) {
	s.held = append(s.held, e) // want `pooled .* stored in field s.held, which is not declared an owner`
}

// Packing into a composite literal field is the same leak.
func retainInLiteral(e *timewarp.Event) *stash {
	return &stash{
		last: e, // want `pooled \*nicwarp/internal/timewarp.Event packed into field stash.last, which is not declared an owner`
	}
}

var lastSeen *timewarp.Event

// Package-level variables are never sanctioned owners.
func retainGlobally(e *timewarp.Event) {
	lastSeen = e // want `pooled \*nicwarp/internal/timewarp.Event stored in package-level lastSeen`
}

// Channel sends hand the pointer to another goroutine.
func shipAcross(ch chan *timewarp.Event, e *timewarp.Event) {
	ch <- e // want `pooled \*nicwarp/internal/timewarp.Event sent on a channel`
}

type slot struct {
	seq uint32
	val int64
}

type table struct {
	arena []slot //nicwarp:owns arena slots are addressed by index, never by retained pointer
}

//nicwarp:grows append may reallocate the backing array
func (t *table) alloc() int {
	t.arena = append(t.arena, slot{})
	return len(t.arena) - 1
}

// The interior pointer dangles into the old backing array after alloc.
func danglingInterior(t *table, i int) int64 {
	s := &t.arena[i]
	t.alloc()
	return s.val // want `use of s.val after arena growth: points into t.arena`
}

// A transfer before a select poisons every arm.
func releaseThenSelect(p *pool, e *timewarp.Event, ch chan int) uint64 {
	p.put(e)
	select {
	case <-ch:
		return e.Payload // want `use of e.Payload after release: ownership transferred to put`
	default:
		return 0
	}
}

// A labeled statement is walked like the statement it labels.
func releaseThenLabeled(p *pool, e *timewarp.Event) {
	p.put(e)
retry:
	for e.Payload > 0 { // want `use of e.Payload after release: ownership transferred to put`
		continue retry
	}
}

// The init statement of a type switch runs before every case.
func releaseInTypeSwitchInit(p *pool, e *timewarp.Event, v interface{}) uint64 {
	switch p.put(e); v.(type) {
	case int:
		return e.Payload // want `use of e.Payload after release: ownership transferred to put`
	}
	return 0
}

type window struct {
	buf []*timewarp.Event // no //nicwarp:owns
}

// A store through a reslice still lands in the undeclared field.
func retainThroughSlice(f *window, e *timewarp.Event) {
	f.buf[1:][0] = e // want `pooled \*nicwarp/internal/timewarp.Event stored in field f.buf\[1:\]\[0\], which is not declared an owner`
}

// An element literal with an elided &stash is packed the same way.
func retainInElidedLiteral(e *timewarp.Event) []*stash {
	return []*stash{{last: e}} // want `pooled \*nicwarp/internal/timewarp.Event packed into field stash.last`
}

type boxes struct {
	any []interface{} // no //nicwarp:owns
}

// Appending into an interface slice still stores the pooled pointer.
func retainBoxed(b *boxes, e *timewarp.Event) {
	b.any = append(b.any, e) // want `pooled \[\]interface\{\} stored in field b.any, which is not declared an owner`
}

// An alias names no type to key a field fact on, so its annotation
// declares nothing and the store is flagged.
type aliased = struct {
	ev *timewarp.Event //nicwarp:owns has no effect on an alias's field
}

func retainInAlias(a *aliased, e *timewarp.Event) {
	a.ev = e // want `pooled \*nicwarp/internal/timewarp.Event stored in field a.ev, which is not declared an owner`
}

// A positional element packs into its field just as a keyed one does.
func retainPositionally(e *timewarp.Event) stash {
	return stash{e, nil} // want `pooled \*nicwarp/internal/timewarp.Event packed into field stash.last, which is not declared an owner`
}

// wrapped promotes table's arena and stash's undeclared last.
type wrapped struct {
	table
	stash
}

// A promoted arena is still an arena: its interior pointer dangles after a
// growth call reached through the embedding.
func danglingPromoted(w *wrapped, i int) int64 {
	s := &w.arena[i]
	w.alloc()
	return s.val // want `use of s.val after arena growth: points into w.arena`
}

// A promoted undeclared field is as undeclared as a direct one.
func retainPromoted(w *wrapped, e *timewarp.Event) {
	w.last = e // want `pooled \*nicwarp/internal/timewarp.Event stored in field w.last, which is not declared an owner`
}
