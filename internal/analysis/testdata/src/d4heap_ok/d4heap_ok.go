// Package d4heap_ok is the clean fixture for the scheduler-queue patterns
// of the concrete 4-ary heap: structure-of-arrays keys, ids and an
// id-indexed position slice, sentinel-padded child groups, hole-moving
// sifts that select by mask instead of branching, a chained identity index
// ranged as a slice (never a map), value-copied snapshots of queue-owned
// state, and sorted-key export of per-queue counters. It must produce no
// walltime, maprange or statealias diagnostics.
package d4heap_ok

import (
	"math/bits"
	"sort"
)

// key is a two-word sort key compared unsigned, high word first.
type key struct{ hi, lo uint64 }

var sentinel = key{^uint64(0), ^uint64(0)}

// item is an identity-index element.
type item struct {
	id   uint64
	next *item // identity-chain link
}

// heap is a miniature 4-ary index-min heap in structure-of-arrays form:
// slots [n, len(k)) hold sentinels so every child group is four wide.
type heap struct {
	k   []key
	id  []uint32
	pos []int32
	n   int
}

func less(a, b key) uint64 {
	_, br := bits.Sub64(a.lo, b.lo, 0)
	_, br = bits.Sub64(a.hi, b.hi, br)
	return br
}

func (h *heap) push(id uint32, k key) {
	for int(id) >= len(h.pos) {
		h.pos = append(h.pos, -1)
	}
	if h.n == len(h.k) {
		for g := 0; g < 4 && (g == 0 || h.n > 0); g++ {
			h.k = append(h.k, sentinel)
			h.id = append(h.id, 0)
		}
	}
	h.n++
	h.up(h.n-1, k, id)
}

func (h *heap) pop() uint32 {
	min := h.id[0]
	h.n--
	k, id := h.k[h.n], h.id[h.n]
	h.k[h.n] = sentinel
	if h.n > 0 {
		h.down(0, k, id)
	}
	h.pos[min] = -1
	return min
}

// up sifts the pair toward the root from the hole at slot i, maintaining
// the position index as slots shift.
func (h *heap) up(i int, k key, id uint32) {
	for i > 0 {
		p := (i - 1) / 4
		if less(k, h.k[p]) == 0 {
			break
		}
		h.k[i], h.id[i] = h.k[p], h.id[p]
		h.pos[h.id[i]] = int32(i)
		i = p
	}
	h.k[i], h.id[i] = k, id
	h.pos[id] = int32(i)
}

// min2 selects the lesser key by mask and reports whether it was b.
func min2(a, b key) (key, uint64) {
	lt := less(b, a)
	m := -lt
	return key{a.hi ^ (a.hi^b.hi)&m, a.lo ^ (a.lo^b.lo)&m}, lt
}

// down sifts the pair toward the leaves, promoting the minimum of a full
// group of four per level.
func (h *heap) down(i int, k key, id uint32) {
	for c := 4*i + 1; c < h.n; c = 4*i + 1 {
		g := (*[4]key)(h.k[c:])
		a, ma := min2(g[0], g[1])
		b, mb := min2(g[2], g[3])
		m, mf := min2(a, b)
		if less(m, k) == 0 {
			break
		}
		mi := c + int(mf<<1|ma^(ma^mb)&-mf)
		h.k[i], h.id[i] = m, h.id[mi]
		h.pos[h.id[i]] = int32(i)
		i = mi
	}
	h.k[i], h.id[i] = k, id
	h.pos[id] = int32(i)
}

// index is a chained identity table: buckets are a slice, so iteration is
// deterministic without annotations — the reason the kernel's pending
// index is not a Go map.
type index struct {
	buckets []*item
	n       int
}

func (ix *index) bucket(id uint64) int {
	return int(id*0x9E3779B97F4A7C15>>32) & (len(ix.buckets) - 1)
}

func (ix *index) add(it *item) {
	b := ix.bucket(it.id)
	it.next = ix.buckets[b]
	ix.buckets[b] = it
	ix.n++
}

// walk visits every chained item in bucket-then-chain order: slice
// iteration, deterministic by construction.
func (ix *index) walk(visit func(*item)) {
	for _, head := range ix.buckets {
		for it := head; it != nil; it = it.next {
			visit(it)
		}
	}
}

// queueState is the scalar telemetry a queue snapshot carries.
type queueState struct {
	pushes  uint64
	pops    uint64
	cancels uint64
}

// queue pairs the heap with its counters.
type queue struct {
	h  heap
	st queueState
}

// SaveState snapshots by value: queueState is scalar-only, so the copy
// cannot alias live queue internals.
func (q *queue) SaveState() interface{} { return q.st }

// exportCounts renders per-class counters with the sorted-key idiom.
func exportCounts(byClass map[string]uint64) []string {
	var keys []string
	for k := range byClass {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
