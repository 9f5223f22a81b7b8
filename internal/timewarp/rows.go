package timewarp

import (
	"unsafe"

	"nicwarp/internal/d4heap"
)

// Directory is a run's object directory: each ObjectID's LP and slot in
// that LP's kernel, indexed by ID (the models number their objects 0..n-1).
// AddObject fills it during assembly and the run only reads it, so every
// kernel of a cluster, on every shard, shares one.
type Directory struct{ homes []home }

type home struct{ lp, slot int32 } // lp is -1 where no object was added

// Home returns the LP object id lives on, or -1 for an unknown id.
func (d *Directory) Home(id ObjectID) int {
	if uint(id) >= uint(len(d.homes)) {
		return -1
	}
	return int(d.homes[id].lp)
}

// grow extends the directory to ids entries.
func (d *Directory) grow(ids int) {
	for len(d.homes) < ids {
		d.homes = append(d.homes, home{lp: -1}) //nicwarp:alloc a standalone kernel's directory grows to its highest id, amortized
	}
}

// Rows holds a cluster's kernels' fixed-size state: their shared
// directory, and one array each, with a row per kernel, for the object
// runtimes, the scheduler heap's three arrays and the first pending-index
// buckets. Kernel.Init carves each kernel's rows off the front, in LP
// order. Every row fills whole 64-byte lines, so kernels on different
// shards never write the same line.
type Rows struct {
	Dir     Directory
	objects []int // per LP, the objects its kernel will add
	lp      int   // the next LP to take its rows
	objs    []objRuntime
	keys    []d4heap.Key
	ids     []uint32
	pos     []int32
	buckets []*Event //nicwarp:owns identity-index heads, handed to each kernel's pendIndex
}

// NewRows returns the rows of kernels adding objects[lp] objects each, with
// a directory for ids.
func NewRows(objects []int, ids []ObjectID) *Rows {
	var size, objs, keys, slots, pos int
	for _, id := range ids {
		size = max(size, int(id)+1)
	}
	for _, n := range objects {
		objs += lineUp[objRuntime](n)
		keys += lineUp[d4heap.Key](d4heap.Slots(n))
		slots += lineUp[uint32](d4heap.Slots(n))
		pos += lineUp[int32](n)
	}
	r := &Rows{objects: objects, objs: make([]objRuntime, objs), keys: make([]d4heap.Key, keys),
		ids: make([]uint32, slots), pos: make([]int32, pos), buckets: make([]*Event, len(objects)*pendIndexMinBuckets)}
	r.Dir.homes = make([]home, 0, size)
	r.Dir.grow(size)
	return r
}

// take starts k on the next LP's rows.
func (r *Rows) take(k *Kernel) {
	if int(k.lp) != r.lp {
		panic("timewarp: kernels must take their rows in LP order")
	}
	n := r.objects[r.lp]
	r.lp++
	k.order = carve(&r.objs, n)
	k.sched.On(carve(&r.keys, d4heap.Slots(n)), carve(&r.ids, d4heap.Slots(n)), carve(&r.pos, n))
	k.pindex.buckets = carve(&r.buckets, pendIndexMinBuckets)[:pendIndexMinBuckets]
}

// carve cuts the next row of n entries, padded to whole lines, off the
// front of *s and returns it empty, with the row as its capacity.
func carve[T any](s *[]T, n int) []T {
	n = lineUp[T](n)
	row := (*s)[:0:n]
	*s = (*s)[n:]
	return row
}

// lineUp rounds n entries of T up to whole 64-byte lines. A T of 64 bytes
// or more must be a multiple of 64 itself, as objRuntime is.
func lineUp[T any](n int) int {
	perLine := max(1, 64/int(unsafe.Sizeof(*new(T))))
	return (n + perLine - 1) / perLine * perLine
}
