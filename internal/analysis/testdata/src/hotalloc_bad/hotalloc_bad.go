// Package hotalloc_bad exercises the hotalloc rule's flagging half. The
// helper/closure pair is the acceptance fixture for call-graph domination:
// helper carries no annotation of its own, yet its closure is flagged
// because the //nicwarp:hotpath root dominates it.
package hotalloc_bad

type event struct {
	id uint64
	ts int64
}

type kernel struct {
	queue []event
	seen  map[uint64]bool
}

// Root is annotated; helper is not. Deleting the annotation from root
// would also silence the finding inside helper — which is exactly the
// regression the domination rule guards against.
//
//nicwarp:hotpath per-event dispatch, certified allocation-free
func dispatch(k *kernel, e event) int64 {
	return helper(k, e)
}

func helper(k *kernel, e event) int64 {
	apply := func(x event) int64 { return x.ts } // want `func literal \(closure allocation\) in hot path helper \(dominated by //nicwarp:hotpath root dispatch\)`
	return apply(e)                              // want `dynamic call \(function value or interface method`
}

//nicwarp:hotpath straggler check
func straggler(k *kernel, e event) bool {
	k.queue = append(k.queue, e) // want `append \(amortized growth is still growth`
	for id := range k.seen {     // want `map iteration \(hash-order walk\) in hot path straggler`
		if id == e.id {
			return true
		}
	}
	return false
}

type logger interface {
	log(v interface{})
}

//nicwarp:hotpath commit fast path
func commit(l logger, e event) *event {
	l.log(e.ts)        // want `dynamic call \(function value or interface method` `interface boxing \(argument converts int64 to interface\{\}\)`
	snap := new(event) // want `new \(heap allocation\) in hot path commit`
	*snap = e
	return snap
}

//nicwarp:hotpath gvt sample
func sample(k *kernel) []uint64 {
	ids := make([]uint64, 0, len(k.queue)) // want `make \(heap allocation\) in hot path sample`
	return ids
}

// store declares put hot on the interface: the implementation in this
// package becomes a hot root, and the caller through the interface is
// judged by what that implementation does. get carries no annotation and
// stays a dynamic call.
type store interface {
	//nicwarp:hotpath per-event write
	put(e event)
	get() event
}

type sliceStore struct{ events []event }

func (s *sliceStore) put(e event) {
	s.events = append(s.events, e) // want `append \(amortized growth is still growth; pre-size the slice\) in hot path put`
}

func (s *sliceStore) get() event { return s.events[0] }

//nicwarp:hotpath record fast path
func record(s store, e event) event {
	s.put(e)
	return s.get() // want `dynamic call \(function value or interface method`
}

// An alias names no type to key a fact on, so a hotpath annotation on its
// method moves no contract there and a call through it stays dynamic.
type flusher = interface {
	//nicwarp:hotpath has no effect on an alias's method
	flush()
}

//nicwarp:hotpath flush fast path
func flushAll(f flusher) {
	f.flush() // want `dynamic call \(function value or interface method`
}
