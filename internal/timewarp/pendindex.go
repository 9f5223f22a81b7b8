package timewarp

// pendIndex is the identity index over a kernel's pending queues, one table
// for every object: event ID (which deterministically encodes sender and
// send sequence) to the pending events carrying that ID. It is an intrusive chained hash table — buckets
// hold list heads linked through Event.inext — rather than a Go map, because
// the index is touched on every deliver and every process: the specialized
// form inlines the hash, avoids per-key hashing interfaces, and grows by
// doubling a single pointer slice instead of incremental map rehashing.
//
// Chain order is insertion order (newest first) and is never observable:
// lookups match on full identity, and when several pending events match it
// find breaks the tie by heap position — the same instance the retired
// linear scan over the heap array would have returned, so which duplicate
// an annihilation removes (and hence the heap's structural evolution) is
// unchanged.
type pendIndex struct {
	buckets []*Event //nicwarp:owns identity-index heads; entries unlinked before Recycle
	n       int
}

// pendIndexMinBuckets is the initial table size; the table doubles when the
// load factor reaches 2.
const pendIndexMinBuckets = 64

// bucket maps an event ID to its chain. Fibonacci hashing spreads the
// sequential low bits of MakeEventID across the table.
func (ix *pendIndex) bucket(id uint64) int {
	return int(id*0x9E3779B97F4A7C15>>32) & (len(ix.buckets) - 1)
}

// add links ev at the head of its chain.
//
//nicwarp:hotpath identity-index insert, executed once per delivered event
func (ix *pendIndex) add(ev *Event) {
	if ix.n >= len(ix.buckets)*2 {
		ix.grow() //nicwarp:alloc table doubling, amortized across the run
	}
	b := ix.bucket(ev.ID)
	ev.inext = ix.buckets[b]
	ix.buckets[b] = ev
	ix.n++
}

// del unlinks ev from its chain. ev must be present.
//
//nicwarp:hotpath identity-index unlink, executed once per executed event
func (ix *pendIndex) del(ev *Event) {
	b := ix.bucket(ev.ID)
	if p := ix.buckets[b]; p == ev {
		ix.buckets[b] = ev.inext
	} else {
		for ; p.inext != ev; p = p.inext {
		}
		p.inext = ev.inext
	}
	ev.inext = nil
	ix.n--
}

// find returns the pending positive identical to ev (which may be the
// anti-message form: identity ignores Sign), or nil. O(1) expected. Among
// several identical duplicates it returns the one lowest in the pending
// heap array, matching the retired linear scan's first-hit choice: identity
// includes Dst, so the duplicates compared all sit in one object's heap.
func (ix *pendIndex) find(ev *Event) *Event {
	if len(ix.buckets) == 0 {
		return nil
	}
	var best *Event
	for p := ix.buckets[ix.bucket(ev.ID)]; p != nil; p = p.inext {
		if p.ID == ev.ID && p.Sign > 0 && sameIdentity(p, ev) {
			if best == nil || p.pos < best.pos {
				best = p
			}
		}
	}
	return best
}

// grow doubles the table and relinks every chained event. Relative order
// within a merged chain may change; see the type comment for why that is
// unobservable.
func (ix *pendIndex) grow() {
	old := ix.buckets
	size := len(old) * 2
	if size < pendIndexMinBuckets {
		size = pendIndexMinBuckets
	}
	ix.buckets = make([]*Event, size)
	for _, p := range old {
		for p != nil {
			next := p.inext
			b := ix.bucket(p.ID)
			p.inext = ix.buckets[b]
			ix.buckets[b] = p
			p = next
		}
	}
}
