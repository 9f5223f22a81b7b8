// Package dense holds the directly indexed tables behind the simulator's
// per-packet bookkeeping. Wave epochs, colour stamps and node ids are small
// dense integers, so state keyed by them lives in slices — the bounded,
// directly indexed scratch state a NIC handler would use (sPIN, PAPERS.md)
// — instead of hash maps: no hashing per packet, no per-operation
// allocation, and iteration is ascending by construction, which is the
// order the deterministic model needs anyway.
package dense

import "math/bits"

// Grow returns s extended, with fill in every new slot, so that index i
// exists: a table keyed by node id is sized by the highest id it has been
// asked about, not by the cluster. A growth is one allocation however far it
// reaches: the backing array jumps to the next power of two above i instead
// of doubling its way there a slot at a time.
func Grow[T any](s []T, i int32, fill T) []T {
	if int(i) < len(s) {
		return s
	}
	return grow(s, i, fill)
}

// grow is Grow's slow path, kept out of line so the check above inlines.
func grow[T any](s []T, i int32, fill T) []T {
	n := len(s)
	if int(i) >= cap(s) {
		grown := make([]T, n, 1<<bits.Len32(uint32(i))) //nicwarp:alloc table growth to the next power of two, once per doubling of the highest index
		copy(grown, s)
		s = grown
	}
	s = s[:i+1]
	for j := n; j < len(s); j++ {
		s[j] = fill
	}
	return s
}

// Reuse returns what make([]T, n) would: n zeroed entries, on s's array
// (resliced from its start, so at the same offsets) when it holds n, else
// on a fresh one the caller keeps in s's place.
func Reuse[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n) //nicwarp:alloc the array grows to the largest n asked of it, once
	}
	s = s[:n]
	clear(s)
	return s
}

// At returns s[i], or the zero value for an index the table has not grown
// to (or a negative one, such as the broadcast destination).
func At[T any](s []T, i int32) T {
	if uint(i) < uint(len(s)) {
		return s[i]
	}
	var zero T
	return zero
}

// Take pops a pointer off the LIFO free list *free. An empty list is first
// refilled with slab freshly allocated objects — one allocation however
// many — so a list that is warming up to its working set pays per slab, not
// per object. The object's contents are unspecified: the caller overwrites
// every field. Putting an object back is a plain append by its owner.
func Take[T any](free *[]*T, slab int) *T {
	if len(*free) == 0 {
		if cap(*free) < slab {
			*free = make([]*T, 0, slab) //nicwarp:alloc first miss: room for a slab at once instead of by doubling
		}
		fresh := make([]T, slab) //nicwarp:alloc pool miss, one per slab
		for i := range fresh {
			*free = append(*free, &fresh[i]) //nicwarp:alloc free-list growth, amortized across the run
		}
	}
	last := len(*free) - 1
	p := (*free)[last]
	(*free)[last] = nil
	*free = (*free)[:last]
	return p
}
