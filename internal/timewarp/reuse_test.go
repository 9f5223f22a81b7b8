package timewarp

import (
	"fmt"
	"testing"

	"nicwarp/internal/vtime"
)

// reuseObj is testObj with the StateReuser extension: it snapshots through
// a Snapshots free list, the representation every in-repo model uses. It
// counts the snapshots the kernel hands back and the Saves that found the
// free list empty (each of those allocates one slab).
type reuseObj struct {
	*testObj
	snaps            Snapshots[testState]
	released, misses int
}

func (o *reuseObj) SaveState() interface{} {
	if len(o.snaps.free) == 0 {
		o.misses++
	}
	return o.snaps.Save(&o.st)
}
func (o *reuseObj) ReleaseState(s interface{}) {
	o.released++
	o.snaps.Release(s)
}
func (o *reuseObj) RestoreState(s interface{}) { o.st = *s.(*testState) }

// plainObj hides everything but the five Object methods, so the kernel sees
// the same object without StateReuser and hands no snapshot back.
type plainObj struct{ Object }

// buildReuseObjs is buildObjs over reuseObj, optionally hidden behind
// plainObj.
func buildReuseObjs(nObj, budget int, seed uint64, hide bool) map[ObjectID]Object {
	objs := buildObjs(nObj, budget, seed)
	for id, o := range objs {
		objs[id] = &reuseObj{testObj: o.(*testObj)}
		if hide {
			objs[id] = plainObj{objs[id]}
		}
	}
	return objs
}

// handedBack returns how many snapshots the kernel handed back to obj,
// looking through plainObj.
func handedBack(obj Object) int {
	switch o := obj.(type) {
	case *reuseObj:
		return o.released
	case plainObj:
		return handedBack(o.Object)
	}
	return 0
}

// TestStateReuseIsInvisible is pool_equiv_test.go's sibling for snapshots:
// the adversarial harness (stragglers, anti-message races, zombies, fossil
// collection) runs the same schedule over
// StateReuser objects and over the same objects with the extension hidden.
// A snapshot handed back while history still needs it, or a RestoreState
// that keeps a reference into one, diverges here: committed counts, digests,
// every kernel's Stats and the hash of every StepResult must be equal, and
// both must match the sequential oracle.
func TestStateReuseIsInvisible(t *testing.T) {
	const nObj, nLP, budget = 6, 3, 40
	assign := func(id ObjectID) int { return int(id) % nLP }
	for seed := uint64(1); seed <= 8; seed++ {
		run := func(hide bool) (*harness, int) {
			h := newHarness(nLP, buildReuseObjs(nObj, budget, seed, hide), assign, seed*31+7)
			return h, h.run(t)
		}
		reuse, committed := run(false)
		plain, plainCommitted := run(true)
		if committed != plainCommitted || reuse.digest() != plain.digest() || reuse.trace != plain.trace {
			t.Fatalf("seed %d: reuse committed %d digest %x trace %x, hidden %d / %x / %x",
				seed, committed, reuse.digest(), reuse.trace, plainCommitted, plain.digest(), plain.trace)
		}
		var rollbacks int64
		reused := 0
		for i, k := range reuse.kernels {
			if k.Stats != plain.kernels[i].Stats {
				t.Fatalf("seed %d: kernel %d stats diverge:\nreuse:  %+v\nhidden: %+v",
					seed, i, k.Stats, plain.kernels[i].Stats)
			}
			rollbacks += k.Stats.Rollbacks.Value()
			for _, o := range k.order {
				reused += handedBack(o.obj)
			}
			for _, o := range plain.kernels[i].order {
				if o.reuser != nil || handedBack(o.obj) != 0 {
					t.Fatalf("seed %d: the hidden twin reuses snapshots", seed)
				}
			}
		}
		if rollbacks == 0 || reused == 0 {
			t.Fatalf("seed %d: %d rollbacks, %d snapshots handed back; the test exercises nothing", seed, rollbacks, reused)
		}
		ref := Sequential(buildReuseObjs(nObj, budget, seed, false), 10_000_000)
		if committed != ref.TotalEvents || reuse.digest() != ref.Digest {
			t.Fatalf("seed %d: committed %d digest %x, oracle %d / %x",
				seed, committed, reuse.digest(), ref.TotalEvents, ref.Digest)
		}
	}
}

// TestSteadyStateStepDoesNotAllocate: once a kernel has reached its working
// set, executing an event and fossil-collecting behind it allocates nothing
// — the snapshot, the history entry, the output row and both event copies
// all come back from where the previous cycle left them.
func TestSteadyStateStepDoesNotAllocate(t *testing.T) {
	k := NewKernel(Config{})
	k.AddObject(0, &reuseObj{testObj: newTestObj(0, []ObjectID{0}, true, 1<<30, 1)})
	k.Bootstrap()
	cycle := func() {
		k.ProcessOne()
		k.FossilCollect(k.NextTS())
	}
	for i := 0; i < 100; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(500, cycle); allocs != 0 {
		t.Fatalf("%v allocations per ProcessOne+FossilCollect cycle, want 0", allocs)
	}
	if k.HistoryEvents() > 1 || k.Stats.FossilEvents.Value() < 500 {
		t.Fatalf("history %d, fossil-collected %d: the cycle is not in steady state",
			k.HistoryEvents(), k.Stats.FossilEvents.Value())
	}
}

// TestSteadyStateRemoteStepDoesNotAllocate is the same cycle for a step
// whose output leaves the LP: every execution sends two events to a remote
// object, which the caller Recycles without handing the Remote slice back.
// The slice is the kernel's scratch, so that costs nothing either; grown
// afresh for each step it cost one allocation per step.
func TestSteadyStateRemoteStepDoesNotAllocate(t *testing.T) {
	k := NewKernel(Config{})
	k.AddObject(0, newFanObj(9, 1<<30))
	k.Bootstrap()
	sent := 0
	cycle := func() {
		for _, ev := range k.ProcessOne().Remote {
			sent++
			k.Recycle(ev)
		}
		k.FossilCollect(k.NextTS())
	}
	for i := 0; i < 100; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(500, cycle); allocs != 0 {
		t.Fatalf("%v allocations per ProcessOne+FossilCollect cycle with remote output, want 0", allocs)
	}
	if k.HistoryEvents() > 1 || sent < 2*500 {
		t.Fatalf("history %d, %d remote events: the cycle is not in steady state", k.HistoryEvents(), sent)
	}
}

// TestSnapshotsComeInSlabs: a history growing to a new depth pays one
// allocation per snapshotSlab snapshots, not one per event, and a history
// that fossil collection has emptied refills from the snapshots it handed
// back without allocating at all.
func TestSnapshotsComeInSlabs(t *testing.T) {
	const events = 1000
	k := NewKernel(Config{})
	o := &reuseObj{testObj: newTestObj(0, []ObjectID{0}, true, 1<<30, 1)}
	k.AddObject(0, o)
	k.Bootstrap()
	for i := 0; i < events; i++ {
		k.ProcessOne()
	}
	if k.HistoryEvents() != events {
		t.Fatalf("history %d after %d events with no fossil collection", k.HistoryEvents(), events)
	}
	if limit := (events + snapshotSlab - 1) / snapshotSlab; o.misses > limit {
		t.Fatalf("%d snapshot slabs allocated for %d events, want at most %d", o.misses, events, limit)
	}
	slabs := o.misses
	k.FossilCollect(k.NextTS())
	if k.HistoryEvents() != 0 || o.released != events {
		t.Fatalf("after fossil collection: history %d, %d snapshots handed back, want 0 and %d",
			k.HistoryEvents(), o.released, events)
	}
	for i := 0; i < events; i++ {
		k.ProcessOne()
	}
	if o.misses != slabs {
		t.Fatalf("%d more snapshot slabs allocated after fossil collection, want none", o.misses-slabs)
	}
}

// fanState is fanObj's rolled-back state.
type fanState struct {
	budget int
	count  uint64
}

// fanObj sends, per event, two messages to a remote object and one to
// itself, so every history entry owns a three-event output row. Payloads
// depend only on the event's timestamp: re-execution after a rollback
// regenerates identical sends.
type fanObj struct {
	remote ObjectID
	st     fanState
	snaps  *Snapshots[fanState] // own, or shared with other fanObjs
	own    Snapshots[fanState]
}

// newFanObj returns a fanObj with a snapshot list of its own.
func newFanObj(remote ObjectID, budget int) *fanObj {
	o := &fanObj{remote: remote, st: fanState{budget: budget}}
	o.snaps = &o.own
	return o
}

func (o *fanObj) Init(ctx *Context) { ctx.Send(ctx.Self(), 10, 0) }
func (o *fanObj) Execute(ctx *Context, ev *Event) {
	o.st.count++
	if ev.Src != ctx.Self() || o.st.budget == 0 {
		return // the straggler, or the end of the chain
	}
	o.st.budget--
	ctx.Send(o.remote, 5, uint64(ev.RecvTS))
	ctx.Send(o.remote, 7, uint64(ev.RecvTS)+1)
	ctx.Send(ctx.Self(), 10, 0)
}
func (o *fanObj) SaveState() interface{}     { return o.snaps.Save(&o.st) }
func (o *fanObj) ReleaseState(s interface{}) { o.snaps.Release(s) }
func (o *fanObj) RestoreState(s interface{}) { o.st = *s.(*fanState) }
func (o *fanObj) Digest() uint64             { return DigestMix(o.st.count, uint64(o.st.budget)) }

// checkChains fails t unless every live history entry of o chains exactly
// the sends its execution made, in send order: a fanObj event from itself
// with budget left sends at +5 and +7 to the remote object and at +10 to
// itself, any other event nothing.
func checkChains(t *testing.T, o *objRuntime) {
	t.Helper()
	for _, e := range o.hist.Live() {
		var got []string
		for out := e.ev.inext; out != nil; out = out.inext {
			if out.Sign != 1 || out.Src != o.id || out.SendTS != e.ev.RecvTS {
				t.Fatalf("entry at %v chains %v", e.ev.RecvTS, out)
			}
			got = append(got, fmt.Sprintf("%d@+%d", out.Dst, out.RecvTS-e.ev.RecvTS))
		}
		want := "[]"
		if e.ev.Src == o.id && e.state.app.(*fanState).budget > 0 {
			want = fmt.Sprintf("[%d@+5 %d@+7 %d@+10]", o.obj.(*fanObj).remote, o.obj.(*fanObj).remote, o.id)
		}
		if fmt.Sprint(got) != want {
			t.Fatalf("entry at %v chains %v, want %s", e.ev.RecvTS, got, want)
		}
	}
}

// runFanSchedule drives one fanObj through every move its history and
// output chains make: entries appended at the tail, popped from the head by
// fossil collection (across the ring's compactions — the chain of events is
// several times longer than the ring ever is), dropped from the tail by
// rollbacks into the middle of history, whose anti-messages cancel their
// chains, and re-appended by re-execution. After every step each live entry
// chains exactly its sends; it ends with everything fossil-collected.
func runFanSchedule(t *testing.T) (*Kernel, *fanObj) {
	t.Helper()
	const self, remote = ObjectID(0), ObjectID(9)
	k := NewKernel(Config{})
	obj := newFanObj(remote, 400)
	k.AddObject(self, obj)
	o := k.local(self)
	antis := 0
	recycle := func(res StepResult) {
		antis += res.AntisEmitted
		for _, ev := range res.Remote {
			k.Recycle(ev)
		}
	}
	recycle(k.Bootstrap())
	for step := 1; k.HasWork(); step++ {
		recycle(k.ProcessOne())
		checkChains(t, o)
		h := o.hist.Live()
		now := h[len(h)-1].ev.RecvTS
		switch {
		case step%25 == 0:
			// A straggler lands six executions back: those rows leave the
			// tail as anti-messages and re-execution regenerates them.
			recycle(k.Deliver(&Event{ID: MakeEventID(remote, uint64(step)), Src: remote, Dst: self,
				SendTS: now - 65, RecvTS: now - 55, Sign: 1}))
		case step%7 == 0:
			// Commit all but the last dozen executions.
			k.FossilCollect(max(k.committedGVT, now-120))
		}
		checkChains(t, o)
	}
	k.FossilCollect(vtime.Infinity)

	if k.Stats.Rollbacks.Value() < 10 || antis < 100 || k.Stats.FossilEvents.Value() < 400 {
		t.Fatalf("rollbacks %d, antis %d, fossil-collected %d: the schedule was not exercised",
			k.Stats.Rollbacks.Value(), antis, k.Stats.FossilEvents.Value())
	}
	if !k.Quiescent() || o.hist.Len() != 0 {
		t.Fatalf("not drained: quiescent %v, history %d", k.Quiescent(), o.hist.Len())
	}
	return k, obj
}

// wholeSlabs fails t unless free holds whole slabs of distinct pointers:
// everything taken was released, and nothing twice.
func wholeSlabs[T any](t *testing.T, what string, free []*T, slab int) {
	t.Helper()
	if len(free)%slab != 0 {
		t.Fatalf("free list holds %d %s, not a whole number of %d-%s slabs: some were never released", len(free), what, slab, what)
	}
	seen := make(map[*T]bool, len(free))
	for _, p := range free {
		if seen[p] {
			t.Fatalf("%s %p is on the free list twice", what, p)
		}
		seen[p] = true
	}
}

// TestOutputRowsReleasedExactlyOnce: at the end of runFanSchedule every
// event the kernel ever took from its pool is back in it exactly once — each
// output chain released whole, by fossil collection or by the rollback that
// cancelled it, and none twice.
func TestOutputRowsReleasedExactlyOnce(t *testing.T) {
	k, _ := runFanSchedule(t)
	if len(k.pool.free) != k.pool.made {
		t.Fatalf("pool holds %d of the %d events it made: some were never released", len(k.pool.free), k.pool.made)
	}
	wholeSlabs(t, "event", k.pool.free, 1)
}

// TestSnapshotsReleasedExactlyOnce is its sibling for snapshots: rollbacks
// into the middle of history hand snapshots back from the tail, fossil
// collection from the head, and at the end every snapshot the object ever
// took from its free list is back on it exactly once.
func TestSnapshotsReleasedExactlyOnce(t *testing.T) {
	_, obj := runFanSchedule(t)
	wholeSlabs(t, "snapshot", obj.snaps.free, snapshotSlab)
}

// TestRollbackCancelsOutputsInSendOrder: a rollback cancels the undone
// entries' outputs oldest entry first and in send order within each entry.
// Anti order moves modeled time (each anti is a packet on the wire), so a
// chain walked backwards would change results without failing anything
// else. One fanObj executes three events, each sending two remote
// positives; a straggler below all three rolls them back.
func TestRollbackCancelsOutputsInSendOrder(t *testing.T) {
	const self, remote = ObjectID(0), ObjectID(9)
	k := NewKernel(Config{})
	k.AddObject(self, newFanObj(remote, 3))
	k.Bootstrap()
	for i := 0; i < 3; i++ {
		k.ProcessOne() // at 10, 20 and 30
	}
	res := k.Deliver(&Event{ID: MakeEventID(remote, 0), Src: remote, Dst: self, SendTS: 1, RecvTS: 5, Sign: 1})
	var got []string
	for _, ev := range res.Remote {
		got = append(got, fmt.Sprintf("%+d@%d:%d", ev.Sign, ev.RecvTS, ev.Payload))
	}
	const want = "[-1@15:10 -1@17:11 -1@25:20 -1@27:21 -1@35:30 -1@37:31]"
	if fmt.Sprint(got) != want {
		t.Fatalf("rollback sent %v, want %s", got, want)
	}
	if res.Rollbacks != 1 || res.UndoneEvents != 3 || res.AntisEmitted != 9 {
		t.Fatalf("rollbacks %d, undone %d, antis %d; want 1, 3 and 9 (three local)",
			res.Rollbacks, res.UndoneEvents, res.AntisEmitted)
	}
}

// TestKernelAllocationsPerObject: the kernel's bookkeeping for one more
// object is a few allocations, not one per structure per object. The
// identity index is one per kernel, and so is the slice of object runtimes,
// which carry each object's first pending-heap and history slots. What is
// left is the object's own: the fanObj and its snapshot slab, and the
// kernel's event slabs and the growth of its directory. Objects built the way the application
// models build them — one slice of them, one snapshot list shared by every
// object on the kernel — cost a fraction of one allocation each.
func TestKernelAllocationsPerObject(t *testing.T) {
	const sink = ObjectID(-1) // not on the kernel
	cases := []struct {
		name  string
		build func(n int) []*fanObj
		limit float64
	}{
		{"own snapshot list", func(n int) []*fanObj {
			objs := make([]*fanObj, n)
			for i := range objs {
				objs[i] = newFanObj(sink, 4)
			}
			return objs
		}, 3.5},
		{"one slice, shared snapshot list", func(n int) []*fanObj {
			slice, snaps := make([]fanObj, n), new(Snapshots[fanState])
			objs := make([]*fanObj, n)
			for i := range slice {
				slice[i] = fanObj{remote: sink, st: fanState{budget: 4}, snaps: snaps}
				objs[i] = &slice[i]
			}
			return objs
		}, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			run := func(n int) float64 {
				return testing.AllocsPerRun(5, func() {
					k := NewKernel(Config{})
					for id, obj := range c.build(n) {
						k.AddObject(ObjectID(id), obj)
					}
					recycle := func(res StepResult) {
						for _, ev := range res.Remote {
							k.Recycle(ev)
						}
					}
					recycle(k.Bootstrap())
					for k.HasWork() {
						recycle(k.ProcessOne())
					}
				})
			}
			small, large := run(64), run(1024)
			per := (large - small) / (1024 - 64)
			t.Logf("%.2f allocations per extra object (%v for 64 objects, %v for 1024)", per, small, large)
			if per > c.limit {
				t.Fatalf("%.2f allocations per extra object, want at most %v", per, c.limit)
			}
		})
	}
}
