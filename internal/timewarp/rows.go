package timewarp

import (
	"unsafe"

	"nicwarp/internal/d4heap"
	"nicwarp/internal/dense"
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
// buckets. Kernel.Init carves each kernel's rows after those taken before
// it, in LP order. Every row fills whole 64-byte lines, so kernels on
// different shards never write the same line.
type Rows struct {
	Dir     Directory
	objects []int // per LP, the objects its kernel will add
	lp      int   // the next LP to take its rows
	// The arrays, each as long as the rows taken so far: the next row
	// starts at its end, and the next Init reuses its capacity.
	objs    []objRuntime
	keys    []d4heap.Key
	ids     []uint32
	pos     []int32
	buckets []*Event //nicwarp:owns identity-index heads, handed to each kernel's pendIndex
}

// NewRows returns the rows of kernels adding objects[lp] objects each, with
// a directory for ids.
func NewRows(objects []int, ids []ObjectID) *Rows {
	r := new(Rows)
	r.Init(objects, ids)
	return r
}

// Init sets r up as NewRows does, zeroing and reusing the arrays and the
// directory of an earlier cluster's rows where they are large enough.
func (r *Rows) Init(objects []int, ids []ObjectID) {
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
	r.objects, r.lp = objects, 0
	r.objs, r.keys, r.ids = dense.Reuse(r.objs, objs)[:0], dense.Reuse(r.keys, keys)[:0], dense.Reuse(r.ids, slots)[:0]
	r.pos, r.buckets = dense.Reuse(r.pos, pos)[:0], dense.Reuse(r.buckets, len(objects)*pendIndexMinBuckets)[:0]
	r.Dir.homes = dense.Reuse(r.Dir.homes, size)[:0]
	r.Dir.grow(size)
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

// carve extends *s over the next row of n entries, padded to whole lines,
// and returns the row empty, with the row as its capacity.
func carve[T any](s *[]T, n int) []T {
	i, j := len(*s), len(*s)+lineUp[T](n)
	*s = (*s)[:j]
	return (*s)[i:i:j]
}

// lineUp rounds n entries of T up to whole 64-byte lines. A T of 64 bytes
// or more must be a multiple of 64 itself, as objRuntime is.
func lineUp[T any](n int) int {
	perLine := max(1, 64/int(unsafe.Sizeof(*new(T))))
	return (n + perLine - 1) / perLine * perLine
}
