package des

import "nicwarp/internal/vtime"

// timerHeap is the engine's 4-ary index-min event list in structure-of-arrays
// form: the (at, seq) sort keys live in their own densely packed slice — four
// 16-byte keys per cache line, so a sift's child scan touches exactly one
// line per level and never dereferences an event — while the parallel ei
// slice carries the arena indices (see Engine.arena) of the events those
// keys belong to. Neither slice contains a pointer, so slot moves compile to
// plain memory writes with no GC write barrier; with *event in the slots the
// barrier flushes alone were several percent of a cancellation-heavy
// profile. The engine's pos slice (parallel to the arena, four entries per
// cache line) is the intrusive position index that makes Timer.Cancel an
// O(log n) remove; keeping it outside the event struct means the one
// scattered write a sift move performs lands in a dense int32 array instead
// of a ~48-byte event record.
//
// (time, seq) with a per-incarnation unique seq is a strict total order, so
// the pop sequence is the sorted order regardless of arity or layout — the
// invariant that keeps this representation swap observationally invisible
// (DESIGN.md §3).
//
// Firing an event is take, not pop: the root slot is vacated and left open
// while the callback runs, because the callback almost always schedules a
// successor (a busy Resource re-arming for its next job, a link handing the
// packet on) and that push can then refill the root with a single sift-down
// instead of paying a pop's sift-down plus a push's sift-up. While the root
// is vacant (hole == 1) slot 0 holds no event: len discounts it, push fills
// it, and everything else — remove, minAt, a second take — requires settle
// first, which closes a hole nobody refilled the way pop would have.
type timerHeap struct {
	k    []timerKey // heap-ordered sort keys
	ei   []uint32   // arena index of each key's event, parallel to k
	hole int        // 1 while the root is vacated by take, else 0
}

// timerKey is the inline sort key; four per 64-byte cache line.
type timerKey struct {
	at  vtime.ModelTime
	seq uint64
}

// timerArity is the fan-out; the four children scanned per sift level share
// one cache line.
const timerArity = 4

func timerLess(a, b *timerKey) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// len counts the scheduled events; a vacated root is not one.
func (h *timerHeap) len() int { return len(h.k) - h.hole }

// minAt returns the earliest scheduled time without touching any event.
// The root must not be vacant.
func (h *timerHeap) minAt() vtime.ModelTime { return h.k[0].at }

// push inserts the event at arena slot ei keyed by (at, seq). The caller
// passes the engine's pos index so sifts can maintain it. A vacated root is
// refilled in place.
func (h *timerHeap) push(pos []int32, at vtime.ModelTime, seq uint64, ei uint32) {
	k := timerKey{at: at, seq: seq}
	if h.hole != 0 {
		h.hole = 0
		h.down(pos, 0, k, ei)
		return
	}
	h.k = append(h.k, timerKey{}) //nicwarp:alloc heap growth to a new high-water depth, amortized
	h.ei = append(h.ei, 0)        //nicwarp:alloc heap growth to a new high-water depth, amortized
	h.up(pos, len(h.k)-1, k, ei)
}

// take vacates the root and returns the arena slot of the earliest event,
// leaving the hole for the next push to refill or settle to close. Panics
// when empty; the root must not already be vacant.
func (h *timerHeap) take(pos []int32) uint32 {
	min := h.ei[0]
	pos[min] = -1
	h.hole = 1
	return min
}

// settle closes a vacated root no push refilled: the last leaf sifts down
// from it, completing the pop. A no-op on a whole heap.
func (h *timerHeap) settle(pos []int32) {
	if h.hole == 0 {
		return
	}
	h.hole = 0
	n := len(h.k) - 1
	lastK, lastE := h.k[n], h.ei[n]
	h.k = h.k[:n]
	h.ei = h.ei[:n]
	if n > 0 {
		h.down(pos, 0, lastK, lastE)
	}
}

// remove deletes the heap slot i (an event's pos entry), the Timer.Cancel
// path. O(log n). The root must not be vacant.
func (h *timerHeap) remove(pos []int32, i int) {
	ev := h.ei[i]
	n := len(h.k) - 1
	lastK, lastE := h.k[n], h.ei[n]
	h.k = h.k[:n]
	h.ei = h.ei[:n]
	if i < n {
		if i > 0 && timerLess(&lastK, &h.k[(i-1)/timerArity]) {
			h.up(pos, i, lastK, lastE)
		} else {
			h.down(pos, i, lastK, lastE)
		}
	}
	pos[ev] = -1
}

// up sifts the (k, ei) pair toward the root from the hole at slot i.
//
//nicwarp:hotpath one sift per scheduled event
func (h *timerHeap) up(pos []int32, i int, k timerKey, ei uint32) {
	for i > 0 {
		p := (i - 1) / timerArity
		if !timerLess(&k, &h.k[p]) {
			break
		}
		h.k[i] = h.k[p]
		h.ei[i] = h.ei[p]
		pos[h.ei[i]] = int32(i)
		i = p
	}
	h.k[i] = k
	h.ei[i] = ei
	pos[ei] = int32(i)
}

// down sifts the (k, ei) pair toward the leaves: promote the minimum of up
// to four children into the hole until the key fits.
//
//nicwarp:hotpath one sift per fired event
func (h *timerHeap) down(pos []int32, i int, k timerKey, ei uint32) {
	n := len(h.k)
	for {
		c := i*timerArity + 1
		if c >= n {
			break
		}
		m := c
		end := c + timerArity
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if timerLess(&h.k[j], &h.k[m]) {
				m = j
			}
		}
		if !timerLess(&h.k[m], &k) {
			break
		}
		h.k[i] = h.k[m]
		h.ei[i] = h.ei[m]
		pos[h.ei[i]] = int32(i)
		i = m
	}
	h.k[i] = k
	h.ei[i] = ei
	pos[ei] = int32(i)
}
