// Package d4heap is the simulator's one scheduler-core heap: a concrete,
// allocation-free 4-ary index-min heap over 128-bit keys. It sits under
// both schedulers — the hardware-level des engine's event list, keyed
// (time, lane-keyed order key) with arena slots as ids, and the Time Warp LP
// scheduler, keyed (head receive timestamp, object id) with object indices
// as ids — and both reduce their order to the same thing: an unsigned
// lexicographic compare of two machine words.
//
// Layout is structure-of-arrays. The keys live in their own densely packed
// slice, four 16-byte keys per 64-byte cache line, so a sift's child scan
// reads one contiguous 64-byte group per level and dereferences nothing.
// The children of slot i are 4i+1…4i+4, so a group fills one line only
// when the root sits in the last 16 bytes of a line; at any other offset,
// the start of a line included, each group straddles two. Neither the
// engine heap (grown by append) nor timewarp.Rows places its root that
// way, so a level may cost two lines. A parallel slice carries each key's
// uint32 id, and an id-indexed pos slice the heap owns is the position
// index that makes Remove and Fix O(log n). No slice holds a pointer, so
// slot moves are plain memory writes with no GC write barrier.
//
// A sift-down never branches on key data. The cost of a sift was never its
// depth (two levels over fifteen keys) but a dozen two-field compares per
// pop whose outcomes the branch predictor cannot learn; here less is the
// final borrow of a chained 128-bit subtract, the minimum of a child group
// is a tournament of selects on keys already in registers, and a group is
// always four wide: the backing arrays are padded to 4m+1 slots with
// sentinel keys {MaxUint64, MaxUint64} that no child beats and no caller
// may push, so there is no partial-group path. The one data-dependent
// branch left per level is the loop exit.
//
// Ordering contract: the keys coexisting in one heap are distinct, so the
// compare is a strict total order and the pop sequence is the sorted order
// regardless of arity or layout — the invariant that keeps this
// representation observationally invisible (DESIGN.md §3).
//
// Popping is Take, not pop: the root slot is vacated and left open while
// the caller works, because an engine callback almost always schedules a
// successor and that Push can then refill the root with a single sift-down
// instead of paying a pop's sift-down plus a push's sift-up. While the root
// is vacant slot 0 holds no entry: Len discounts it, Push fills it, and
// everything else — Remove, Fix, Min, a second Take — requires Settle first,
// which closes a hole nobody refilled the way pop would have.
package d4heap

import "math/bits"

// Key is a 128-bit sort key compared as the unsigned number Hi<<64 | Lo.
type Key struct{ Hi, Lo uint64 }

// sentinel pads the last child group; it must never be pushed.
var sentinel = Key{^uint64(0), ^uint64(0)}

// pad is the growth unit: one whole child group.
var (
	padKeys = [4]Key{sentinel, sentinel, sentinel, sentinel}
	padIDs  [4]uint32
)

// Heap is a 4-ary index-min heap of (Key, id) entries. The zero value is an
// empty heap ready for use. Ids are small dense integers chosen by the
// caller (arena slots, object indices); an id is on the heap at most once.
type Heap struct {
	k    []Key    // heap-ordered keys; len is 0 or 4m+1, slots [n, len) hold sentinels
	id   []uint32 // id of each key's entry, parallel to k
	pos  []int32  // slot of each id, -1 while off the heap
	n    int      // occupied slots, a vacated root included
	hole int      // 1 while the root is vacated by Take, else 0
}

// Less reports whether a sorts before b.
func (a Key) Less(b Key) bool { return less(a, b) != 0 }

// less returns 1 if a sorts before b, else 0: the borrow out of a - b.
func less(a, b Key) uint64 {
	_, br := bits.Sub64(a.Lo, b.Lo, 0) //nicwarp:alloc compiler intrinsic (SUB); opaque to the analyzer
	_, br = bits.Sub64(a.Hi, b.Hi, br) //nicwarp:alloc compiler intrinsic (SBB); opaque to the analyzer
	return br
}

// Len counts the entries; a vacated root is not one.
func (h *Heap) Len() int { return h.n - h.hole }

// Min returns the id of the least entry, MinKey its key. The heap must be
// nonempty and the root not vacant.
func (h *Heap) Min() uint32 { return h.id[0] }

// MinKey: see Min.
func (h *Heap) MinKey() Key { return h.k[0] }

// Has reports whether id is on the heap.
func (h *Heap) Has(id uint32) bool { return int(id) < len(h.pos) && h.pos[id] >= 0 }

// Slots is how many key and id slots n entries take: padded to 4m+1.
func Slots(n int) int { return 4*((n+2)/4) + 1 }

// On starts an empty h on the caller's arrays, for a caller that knows its
// population up front: Slots(n) keys and ids and n positions hold n
// entries with ids below n without allocating.
func (h *Heap) On(k []Key, id []uint32, pos []int32) {
	*h = Heap{k: k[:0], id: id[:0], pos: pos[:0]}
}

// Reset empties h, keeping its arrays for it to refill without allocating.
func (h *Heap) Reset() { h.On(h.k, h.id, h.pos) }

// Push inserts id under key k. A vacated root is refilled in place.
//
//nicwarp:hotpath one push per scheduled event
func (h *Heap) Push(id uint32, k Key) {
	if k == sentinel {
		panic("d4heap: Push of the sentinel key")
	}
	for int(id) >= len(h.pos) {
		h.pos = append(h.pos, -1) //nicwarp:alloc position index growth to a new high-water id, amortized
	}
	if h.hole != 0 {
		h.hole = 0
		h.down(0, k, id)
		return
	}
	if h.n == len(h.k) {
		g := 4
		if h.n == 0 {
			g = 1 // the root is a group of its own
		}
		h.k = append(h.k, padKeys[:g]...)  //nicwarp:alloc heap growth to a new high-water depth, amortized
		h.id = append(h.id, padIDs[:g]...) //nicwarp:alloc heap growth to a new high-water depth, amortized
	}
	h.n++
	h.up(h.n-1, k, id)
}

// Take vacates the root and returns the id of the least entry, leaving the
// hole for the next Push to refill or Settle to close. The heap must be
// nonempty and the root not already vacant.
//
//nicwarp:hotpath one take per fired event
func (h *Heap) Take() uint32 {
	min := h.id[0]
	h.pos[min] = -1
	h.hole = 1
	return min
}

// Settle closes a vacated root no Push refilled: the last leaf sifts down
// from it, completing the pop. A no-op on a whole heap.
//
//nicwarp:hotpath one settle per fired event
func (h *Heap) Settle() {
	if h.hole == 0 {
		return
	}
	h.hole = 0
	k, id := h.dropLast()
	if h.n > 0 {
		h.down(0, k, id)
	}
}

// Remove deletes id's entry. O(log n). The root must not be vacant.
func (h *Heap) Remove(id uint32) {
	i := int(h.pos[id])
	k, last := h.dropLast()
	if i < h.n {
		h.place(i, k, last)
	}
	h.pos[id] = -1
}

// Fix re-keys id's entry to k and restores heap order. O(log n). The root
// must not be vacant.
//
//nicwarp:hotpath one fix per scheduler head change
func (h *Heap) Fix(id uint32, k Key) {
	if k == sentinel {
		panic("d4heap: Fix to the sentinel key")
	}
	h.place(int(h.pos[id]), k, id)
}

// dropLast vacates the last occupied slot, returning what it held and
// leaving a sentinel behind so its group stays four wide.
func (h *Heap) dropLast() (Key, uint32) {
	h.n--
	k, id := h.k[h.n], h.id[h.n]
	h.k[h.n] = sentinel
	return k, id
}

// place routes the (k, id) pair, logically occupying the hole at slot i, up
// or down.
func (h *Heap) place(i int, k Key, id uint32) {
	if i > 0 && less(k, h.k[(i-1)/4]) != 0 {
		h.up(i, k, id)
	} else {
		h.down(i, k, id)
	}
}

// up sifts the (k, id) pair toward the root from the hole at slot i.
//
//nicwarp:hotpath one sift per scheduled event
func (h *Heap) up(i int, k Key, id uint32) {
	ks, ids, pos := h.k, h.id, h.pos
	for i > 0 {
		p := (i - 1) / 4
		if less(k, ks[p]) == 0 {
			break
		}
		ks[i] = ks[p]
		ids[i] = ids[p]
		pos[ids[i]] = int32(i)
		i = p
	}
	ks[i] = k
	ids[i] = id
	pos[id] = int32(i)
}

// min2 returns the lesser of two keys, and 1 if that is b (0 if a: a tie —
// two sentinels — keeps a). The conditional assignment touches only the two
// key words, which the compiler turns into conditional moves; a slot index
// assigned alongside would keep the branch (the compiler never makes a load
// address wait on a conditional move), so the caller rebuilds the slot from
// the returned bits instead.
func min2(a, b Key) (Key, uint64) {
	lt := less(b, a)
	if lt != 0 {
		a = b
	}
	return a, lt
}

// down sifts the (k, id) pair toward the leaves: promote the minimum of the
// four children into the hole until the key fits. Every group a live parent
// reaches is fully backed (see Heap.k), sentinels losing every compare. The
// winner's key comes out of the tournament in registers, so the exit test
// waits on no reload; its slot is rebuilt from the three compare bits.
//
//nicwarp:hotpath one sift per fired event
func (h *Heap) down(i int, k Key, id uint32) {
	ks, pos := h.k, h.pos
	ids := h.id[:len(ks)] // parallel arrays: one bounds check serves both
	n := h.n
	for c := 4*i + 1; c < n; c = 4*i + 1 {
		g := (*[4]Key)(ks[c:])
		a, ma := min2(g[0], g[1])
		b, mb := min2(g[2], g[3])
		m, mf := min2(a, b)
		if less(m, k) == 0 {
			break
		}
		mi := c + int(mf<<1|ma^(ma^mb)&-mf)
		ks[i] = m
		ids[i] = ids[mi]
		pos[ids[i]] = int32(i)
		i = mi
	}
	ks[i] = k
	ids[i] = id
	pos[id] = int32(i)
}
