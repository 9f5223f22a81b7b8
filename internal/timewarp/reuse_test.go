package timewarp

import (
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
// collection; both cancellation policies) runs the same schedule over
// StateReuser objects and over the same objects with the extension hidden.
// A snapshot handed back while history still needs it, or a RestoreState
// that keeps a reference into one, diverges here: committed counts, digests,
// every kernel's Stats and the hash of every StepResult must be equal, and
// both must match the sequential oracle.
func TestStateReuseIsInvisible(t *testing.T) {
	const nObj, nLP, budget = 6, 3, 40
	assign := func(id ObjectID) int { return int(id) % nLP }
	for _, policy := range []CancellationPolicy{Aggressive, Lazy} {
		for seed := uint64(1); seed <= 8; seed++ {
			run := func(hide bool) (*harness, int) {
				h := newHarness(nLP, buildReuseObjs(nObj, budget, seed, hide), assign, policy, seed*31+7)
				return h, h.run(t)
			}
			reuse, committed := run(false)
			plain, plainCommitted := run(true)
			if committed != plainCommitted || reuse.digest() != plain.digest() || reuse.trace != plain.trace {
				t.Fatalf("%v seed %d: reuse committed %d digest %x trace %x, hidden %d / %x / %x",
					policy, seed, committed, reuse.digest(), reuse.trace, plainCommitted, plain.digest(), plain.trace)
			}
			var rollbacks int64
			reused := 0
			for i, k := range reuse.kernels {
				if k.Stats != plain.kernels[i].Stats {
					t.Fatalf("%v seed %d: kernel %d stats diverge:\nreuse:  %+v\nhidden: %+v",
						policy, seed, i, k.Stats, plain.kernels[i].Stats)
				}
				rollbacks += k.Stats.Rollbacks.Value()
				for _, o := range k.order {
					reused += handedBack(o.obj)
				}
				for _, o := range plain.kernels[i].order {
					if o.reuser != nil || handedBack(o.obj) != 0 {
						t.Fatalf("%v seed %d: the hidden twin reuses snapshots", policy, seed)
					}
				}
			}
			if rollbacks == 0 || reused == 0 {
				t.Fatalf("%v seed %d: %d rollbacks, %d snapshots handed back; the test exercises nothing", policy, seed, rollbacks, reused)
			}
			ref := Sequential(buildReuseObjs(nObj, budget, seed, false), 10_000_000)
			if committed != ref.TotalEvents || reuse.digest() != ref.Digest {
				t.Fatalf("%v seed %d: committed %d digest %x, oracle %d / %x",
					policy, seed, committed, reuse.digest(), ref.TotalEvents, ref.Digest)
			}
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
// regenerates identical sends, which is what lazy cancellation matches.
type fanObj struct {
	remote ObjectID
	st     fanState
	snaps  Snapshots[fanState]
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

// runFanSchedule drives one fanObj through every move its history and outs
// ring make, under lazy cancellation: entries appended at the tail, popped
// from the head by fossil collection (across the rings' compactions — the
// chain is several times longer than the rings ever are), dropped from the
// tail by rollbacks into the middle of history, and re-appended by lazy
// hits. It ends with everything fossil-collected.
func runFanSchedule(t *testing.T) (*Kernel, *fanObj) {
	t.Helper()
	const self, remote = ObjectID(0), ObjectID(9)
	k := NewKernel(Config{Cancellation: Lazy})
	obj := &fanObj{remote: remote, st: fanState{budget: 400}}
	k.AddObject(self, obj)
	recycle := func(res StepResult) {
		for _, ev := range res.Remote {
			k.Recycle(ev)
		}
		k.RecycleRemoteBuf(res.Remote)
	}
	recycle(k.Bootstrap())
	for step := 1; k.HasWork(); step++ {
		recycle(k.ProcessOne())
		now := k.objs[self].clock()
		switch {
		case step%25 == 0:
			// A straggler lands six executions back: those rows leave the
			// tail for lazyPending and re-execution regenerates them.
			recycle(k.Deliver(&Event{ID: MakeEventID(remote, uint64(step)), Src: remote, Dst: self,
				SendTS: now - 65, RecvTS: now - 55, Sign: 1}))
		case step%7 == 0:
			// Commit all but the last dozen executions.
			recycle(k.FossilCollect(max(k.committedGVT, now-120)))
		}
	}
	recycle(k.FossilCollect(vtime.Infinity))

	if k.Stats.Rollbacks.Value() < 10 || k.Stats.LazyHits.Value() < 100 || k.Stats.FossilEvents.Value() < 400 {
		t.Fatalf("rollbacks %d, lazy hits %d, fossil-collected %d: the schedule was not exercised",
			k.Stats.Rollbacks.Value(), k.Stats.LazyHits.Value(), k.Stats.FossilEvents.Value())
	}
	if k.Stats.LazyAntis.Value() != 0 {
		t.Fatalf("%d lazy antis: re-execution should have regenerated every cancelled send", k.Stats.LazyAntis.Value())
	}
	o := k.objs[self]
	if !k.Quiescent() || o.hist.Len() != 0 || o.outs.Len() != 0 {
		t.Fatalf("not drained: quiescent %v, history %d, output rows %d", k.Quiescent(), o.hist.Len(), o.outs.Len())
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
// event the kernel ever took from its pool is back in it exactly once.
func TestOutputRowsReleasedExactlyOnce(t *testing.T) {
	k, _ := runFanSchedule(t)
	wholeSlabs(t, "event", k.pool.free, eventSlab)
}

// TestSnapshotsReleasedExactlyOnce is its sibling for snapshots: rollbacks
// into the middle of history hand snapshots back from the tail, fossil
// collection from the head, and at the end every snapshot the object ever
// took from its free list is back on it exactly once.
func TestSnapshotsReleasedExactlyOnce(t *testing.T) {
	_, obj := runFanSchedule(t)
	wholeSlabs(t, "snapshot", obj.snaps.free, snapshotSlab)
}
