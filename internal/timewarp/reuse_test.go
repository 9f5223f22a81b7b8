package timewarp

import (
	"testing"

	"nicwarp/internal/vtime"
)

// reuseObj is testObj with the StateReuser extension: its snapshot is a
// *testState the kernel hands back, the representation every in-repo model
// uses.
type reuseObj struct{ *testObj }

func (o reuseObj) SaveState() interface{} { return o.SaveStateInto(nil) }
func (o reuseObj) SaveStateInto(old interface{}) interface{} {
	snap, _ := old.(*testState)
	if snap == nil {
		snap = new(testState)
	}
	*snap = o.st
	return snap
}
func (o reuseObj) RestoreState(s interface{}) { o.st = *s.(*testState) }

// plainObj hides everything but the five Object methods, so the kernel sees
// the same object without StateReuser and takes a fresh snapshot per event.
type plainObj struct{ Object }

// buildReuseObjs is buildObjs over reuseObj, optionally hidden behind
// plainObj.
func buildReuseObjs(nObj, budget int, seed uint64, hide bool) map[ObjectID]Object {
	objs := buildObjs(nObj, budget, seed)
	for id, o := range objs {
		objs[id] = reuseObj{o.(*testObj)}
		if hide {
			objs[id] = plainObj{objs[id]}
		}
	}
	return objs
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
			var rollbacks, reused int64
			for i, k := range reuse.kernels {
				if k.Stats != plain.kernels[i].Stats {
					t.Fatalf("%v seed %d: kernel %d stats diverge:\nreuse:  %+v\nhidden: %+v",
						policy, seed, i, k.Stats, plain.kernels[i].Stats)
				}
				rollbacks += k.Stats.Rollbacks.Value()
				for _, o := range k.order {
					reused += int64(len(o.stateFree))
				}
				for _, o := range plain.kernels[i].order {
					if o.reuser != nil || len(o.stateFree) != 0 {
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
	k.AddObject(0, reuseObj{newTestObj(0, []ObjectID{0}, true, 1<<30, 1)})
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

// fanObj sends, per event, two messages to a remote object and one to
// itself, so every history entry owns a three-event output row. Payloads
// depend only on the event's timestamp: re-execution after a rollback
// regenerates identical sends, which is what lazy cancellation matches.
type fanObj struct {
	remote ObjectID
	budget int
	count  uint64
}

func (o *fanObj) Init(ctx *Context) { ctx.Send(ctx.Self(), 10, 0) }
func (o *fanObj) Execute(ctx *Context, ev *Event) {
	o.count++
	if ev.Src != ctx.Self() || o.budget == 0 {
		return // the straggler, or the end of the chain
	}
	o.budget--
	ctx.Send(o.remote, 5, uint64(ev.RecvTS))
	ctx.Send(o.remote, 7, uint64(ev.RecvTS)+1)
	ctx.Send(ctx.Self(), 10, 0)
}
func (o *fanObj) SaveState() interface{}     { return *o }
func (o *fanObj) RestoreState(s interface{}) { *o = s.(fanObj) }
func (o *fanObj) Digest() uint64             { return DigestMix(o.count, uint64(o.budget)) }

// TestOutputRowsReleasedExactlyOnce walks the outs ring through every move
// it makes, under lazy cancellation: rows appended at the tail, popped from
// the head by fossil collection (across the ring's compactions — the chain
// is several times longer than the ring ever is), dropped from the tail by
// rollbacks into the middle of history, and re-appended by lazy hits. At
// the end every event the kernel ever took from its pool must be back in
// it exactly once.
func TestOutputRowsReleasedExactlyOnce(t *testing.T) {
	const self, remote = ObjectID(0), ObjectID(9)
	k := NewKernel(Config{Cancellation: Lazy})
	k.AddObject(self, &fanObj{remote: remote, budget: 400})
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
			recycle(k.FossilCollect(vtime.MaxV(k.CommittedGVT(), now-120)))
		}
	}
	recycle(k.FossilCollect(vtime.Infinity))

	if k.Stats.Rollbacks.Value() < 10 || k.Stats.LazyHits.Value() < 100 || k.Stats.FossilEvents.Value() < 400 {
		t.Fatalf("rollbacks %d, lazy hits %d, fossil-collected %d: the ring was not exercised",
			k.Stats.Rollbacks.Value(), k.Stats.LazyHits.Value(), k.Stats.FossilEvents.Value())
	}
	if k.Stats.LazyAntis.Value() != 0 {
		t.Fatalf("%d lazy antis: re-execution should have regenerated every cancelled send", k.Stats.LazyAntis.Value())
	}
	o := k.objs[self]
	if !k.Quiescent() || o.hist.Len() != 0 || o.outs.Len() != 0 {
		t.Fatalf("not drained: quiescent %v, history %d, output rows %d", k.Quiescent(), o.hist.Len(), o.outs.Len())
	}
	// Whole slabs, every event distinct: nothing leaked, nothing released
	// twice.
	if len(k.pool.free)%eventSlab != 0 {
		t.Fatalf("pool holds %d events, not a whole number of %d-event slabs: some were never released", len(k.pool.free), eventSlab)
	}
	seen := make(map[*Event]bool, len(k.pool.free))
	for _, ev := range k.pool.free {
		if seen[ev] {
			t.Fatalf("event %p is in the pool twice", ev)
		}
		seen[ev] = true
	}
}
