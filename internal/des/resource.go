package des

import (
	"fmt"

	"nicwarp/internal/d4heap"
	"nicwarp/internal/dense"
	"nicwarp/internal/stats"
	"nicwarp/internal/vtime"
)

// doneEntry is one submitted job waiting for its completion: the key
// reserved for the completion event, and the callback to run then. One
// cache line; entries are filled and read in place in the ring, because
// copying one per job shows in profiles.
type doneEntry struct {
	// key is (completion time, order key drawn at submit); the order key's
	// lane bits are the lane the completion fires on.
	key d4heap.Key
	cb  callback
}

// Resource models a single-server FIFO hardware resource: a host CPU, a NIC
// processor, a DMA engine on an I/O bus, or a link serializer. Work is
// submitted as (cost, completion) pairs; jobs occupy the server back to back
// in submission order, which models queueing contention — the central
// mechanism behind the paper's results (GVT control messages contending for
// host CPU and I/O bus).
type Resource struct {
	eng  *Engine
	kind string // what the resource models, such as "host-cpu"
	lane uint32 // the engine's lane at Init: with kind, names the resource

	busyUntil vtime.ModelTime

	// done holds the submitted, incomplete jobs. A FIFO server's finish
	// times are known at submit and never decrease, so the engine needs to
	// hold only one event per resource — armed for the head-of-line job —
	// instead of one per job: submit reserves the job's completion key
	// (finish time, lane-keyed order key) exactly as scheduling the event
	// then would have drawn it, and the completion inserts the next job's
	// reserved key when it becomes the head. Every completion therefore
	// fires under the key a per-job event would have carried, and the
	// engine's event order cannot tell the difference (DESIGN.md §3).
	// Callbacks run in submission order; keys fire in key order. The two
	// coincide except for a zero-cost job submitted from a lower lane onto
	// a tied finish time, which undercut handles.
	done  dense.Queue[doneEntry] // so a Resource must not be copied once used
	armed uint32                 // arena slot of the head-of-line completion event while done is non-empty

	// Metrics.
	Busy stats.BusyTime // integrated service time
	Jobs stats.Counter  // completed jobs
}

// NewResource creates a resource of the given kind on the engine.
func NewResource(eng *Engine, kind string) *Resource {
	r := new(Resource)
	r.Init(eng, kind)
	return r
}

// Init sets r up in place as a resource of the given kind on the engine's
// current lane: a component that embeds its resource sets the lane of the
// node it belongs to first, and needs no formatted name.
func (r *Resource) Init(eng *Engine, kind string) {
	if eng == nil {
		panic("des: Resource.Init with nil engine")
	}
	*r = Resource{eng: eng, kind: kind, lane: eng.curLane}
}

// Idle reports whether the resource has no queued or executing work.
func (r *Resource) Idle() bool { return r.done.Len() == 0 }

// SubmitArg enqueues a job with the given service cost; at its completion
// fn(arg) runs, unless fn is nil. Jobs complete in submission order.
// Returns the completion time. fn should be a top-level function and arg a
// threaded receiver, so hot callers allocate nothing per job.
func (r *Resource) SubmitArg(cost vtime.ModelTime, fn func(interface{}), arg interface{}) vtime.ModelTime {
	r.submit(cost).cb = callback{fnArg: fn, arg: arg}
	return r.busyUntil
}

// SubmitArg2 is SubmitArg with two threaded receivers: at completion
// fn(a, b) runs. Used by pipelines that pair a component with a payload
// without a wrapper allocation.
func (r *Resource) SubmitArg2(cost vtime.ModelTime, fn func(interface{}, interface{}), a, b interface{}) vtime.ModelTime {
	r.submit(cost).cb = callback{fn2: fn, arg: a, argB: b}
	return r.busyUntil
}

// submit books the job on the server, reserves its completion key and
// returns its ring entry for the caller to fill in the callback. Only a job
// that finds the server idle puts an event on the engine.
//
//nicwarp:hotpath every modeled hardware stage submits one job per packet
func (r *Resource) submit(cost vtime.ModelTime) *doneEntry {
	if cost < 0 {
		panic(fmt.Sprintf("des: Submit with negative cost on %s of lane %d", r.kind, r.lane))
	}
	e := r.eng
	finish := vtime.MaxM(e.now, r.busyUntil) + cost
	r.busyUntil = finish
	r.Busy.AddInterval(cost)
	d := r.done.PushSlot()
	d.key = eventKey(finish, e.nextOrd())
	if n := r.done.Len(); n == 1 {
		r.arm(d)
	} else if q := r.done.Live(); d.key.Less(q[n-2].key) {
		r.undercut(q)
	}
	return d
}

// arm puts the completion event for the head-of-line job d on the engine
// under d's reserved key.
func (r *Resource) arm(d *doneEntry) {
	e := r.eng
	r.armed = e.insert(d.key, uint32(d.key.Lo>>laneSeqBits))
	e.arena[r.armed].cb = callback{fnArg: resourceComplete, arg: r}
}

// undercut restores key order after a submit whose key sorts before its
// predecessor's. Finish times never decrease and a lane's order keys only
// grow, so this takes a zero-cost job submitted from a lower lane than the
// job it ties with. Per-job events would fire the lower key first and hand
// it the oldest callback; sorting the keys while the callbacks stay put does
// the same, and if the new key reaches the head the armed event moves to it.
func (r *Resource) undercut(q []doneEntry) {
	armedSeq := q[0].key.Lo
	i := len(q) - 1
	for ; i > 0 && q[i].key.Less(q[i-1].key); i-- {
		q[i].key, q[i-1].key = q[i-1].key, q[i].key
	}
	if i == 0 {
		r.eng.cancel(r.armed, armedSeq)
		r.arm(&q[0])
	}
}

// resourceComplete is the resource's one armed event firing: the
// head-of-line job finishes now. The next job's reserved key goes on the
// engine before the callback runs, so it is the insert that refills the
// root this event vacated. The job's callback is copied out whole before
// its ring entry is dropped; the entry was written at submit, normally long
// before.
//
//nicwarp:hotpath one completion per job
func resourceComplete(x interface{}) {
	r := x.(*Resource)
	cb := r.done.Front().cb
	r.done.Drop()
	r.Jobs.Inc()
	if r.done.Len() > 0 {
		r.arm(r.done.Front())
	}
	cb.run()
}

// UtilizationAt returns the fraction of model time up to end this resource
// was busy. The caller passes the run's end clock (Group.Now in a sharded
// run), because a member engine's own clock stops at its last local event.
func (r *Resource) UtilizationAt(end vtime.ModelTime) float64 {
	return r.Busy.Utilization(end)
}
