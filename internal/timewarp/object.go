package timewarp

import (
	"nicwarp/internal/dense"
	"nicwarp/internal/vtime"
)

// Object is a simulation object (the unit the application model is written
// in; several objects share one LP, as in WARPED).
//
// Implementations must be deterministic functions of (state, event): given
// the same saved state and the same input event they must make the same
// sends and state transitions. All randomness must come from generator
// state embedded in the object's saved state (see rng.Source, whose value
// semantics make this trivial). Determinism is what lets rollback and the
// sequential oracle agree.
type Object interface {
	// Init runs once at virtual time zero to seed initial events. Sends
	// made here are unconditional: they can never be rolled back.
	Init(ctx *Context)
	// Execute processes one positive event.
	Execute(ctx *Context, ev *Event)
	// SaveState returns a snapshot of the object's mutable state. The
	// kernel calls it before every event execution (WARPED's default
	// state-saving period of 1).
	SaveState() interface{}
	// RestoreState reinstates a snapshot produced by SaveState.
	RestoreState(s interface{})
	// Digest folds the object's current state into a hash for oracle
	// comparison. It must depend on every piece of state that influences
	// behaviour.
	Digest() uint64
}

// StateReuser is an optional Object extension: an object that implements it
// is handed back the snapshots its history no longer needs, so steady-state
// state saving allocates nothing. It is an extension rather than a change
// to Object (like core.Grained for App) so that an Object written against
// the five-method interface keeps working unchanged; the kernel then simply
// drops each snapshot it is done with.
type StateReuser interface {
	// ReleaseState hands back a snapshot this object's SaveState returned,
	// exactly once, when no history entry needs it any more: after fossil
	// collection, or after a rollback whose RestoreState has copied out of
	// it. The object may return it from a later SaveState, so RestoreState
	// must copy out rather than keep a reference.
	ReleaseState(s interface{})
}

// snapshotSlab is how many snapshots one free-list miss allocates.
const snapshotSlab = 32

// Snapshots is a snapshot free list: the one place saved states live
// between uses. An object holds one, or a pointer to one it shares with the
// other objects of its type on its LP (one kernel, so one goroutine), returns
// Save(&st) from SaveState and forwards ReleaseState to Release; a history
// growing to a new depth then allocates a slab at a time, and a steady
// state not at all.
type Snapshots[T any] struct {
	free []*T //nicwarp:owns snapshots no history entry references; each is handed out by Save again
}

// Save returns a copy of *st in a snapshot taken from the free list. T must
// be a value type (no slices, maps or pointers): the copy is shallow.
func (s *Snapshots[T]) Save(st *T) interface{} {
	snap := dense.Take(&s.free, snapshotSlab)
	*snap = *st
	return snap
}

// Release puts back a snapshot Save returned.
func (s *Snapshots[T]) Release(v interface{}) {
	s.free = append(s.free, v.(*T)) //nicwarp:alloc free-list growth to the history's high-water depth, amortized
}

// Context is the capability surface an object sees while executing. It is
// only valid for the duration of the Init or Execute call it is passed to.
type Context struct {
	k   *Kernel
	st  *objRuntime
	now vtime.VTime
	// out is where the next send links into the executing event's output
	// chain; nil during Init, whose sends are recorded nowhere.
	out **Event //nicwarp:owns the tail link of the executing event's output chain, which owns what is linked there
}

// Self returns the executing object's ID.
func (c *Context) Self() ObjectID { return c.st.id }

// Now returns the current virtual time (the receive timestamp of the event
// being executed; zero during Init).
func (c *Context) Now() vtime.VTime { return c.now }

// Send schedules a positive event for dst at Now()+delay. Delay must be at
// least 1: zero-delay messages would allow causal cycles at a single
// virtual time, which Time Warp cannot order.
func (c *Context) Send(dst ObjectID, delay vtime.VTime, payload uint64) {
	if delay < 1 {
		panic("timewarp: Send with delay < 1")
	}
	c.k.send(c, dst, delay, payload)
}

// DigestMix is a helper for implementing Object.Digest: it folds v into h
// with a strong bit mixer.
func DigestMix(h, v uint64) uint64 {
	h ^= v + 0x9E3779B97F4A7C15 + (h << 6) + (h >> 2)
	h *= 0xFF51AFD7ED558CCD
	h ^= h >> 33
	return h
}
