package timewarp

import (
	"math"
	"testing"

	"nicwarp/internal/rng"
	"nicwarp/internal/vtime"
)

// checkSched asserts that the scheduler heap's root is the object a linear
// scan under Event.Compare picks, and that HasWork and NextTS agree with it.
func checkSched(t *testing.T, k *Kernel) {
	t.Helper()
	var best *objRuntime
	for _, o := range k.order {
		if o.pending.Len() > 0 && (best == nil || o.pending.Min().Before(best.pending.Min())) {
			best = o
		}
	}
	if best == nil {
		if k.HasWork() || k.NextTS() != vtime.Infinity {
			t.Fatalf("idle LP reports HasWork=%v NextTS=%v", k.HasWork(), k.NextTS())
		}
		return
	}
	if !k.HasWork() {
		t.Fatalf("LP with %v pending reports no work", best.pending.Min())
	}
	if got := k.order[k.sched.Min()]; got != best {
		t.Fatalf("scheduler root is object %d (key %+v), Event.Compare picks object %d with head %v",
			got.id, k.sched.MinKey(), best.id, best.pending.Min())
	}
	if got, want := k.NextTS(), best.pending.Min().RecvTS; got != want {
		t.Fatalf("NextTS = %v, lowest head is at %v", got, want)
	}
}

// TestSchedulerKeyOrderIsEventOrder: the scheduler orders objects by a cached
// (head.RecvTS, id) key instead of comparing their head events. After every
// public kernel call of adversarial distributed runs — stragglers, rollbacks,
// annihilations, both cancellation policies — and after every head change of
// a white-box drive over the corners of the key space, the heap's root must
// be the object Event.Compare puts first.
func TestSchedulerKeyOrderIsEventOrder(t *testing.T) {
	for _, policy := range []CancellationPolicy{Aggressive, Lazy} {
		for seed := uint64(1); seed <= 4; seed++ {
			const nLP = 3
			h := newHarness(nLP, buildObjs(6, 40, seed), func(id ObjectID) int { return int(id) % nLP }, policy, seed*31+7)
			calls := 0
			h.after = func(k *Kernel) { calls++; checkSched(t, k) }
			h.run(t)
			rolled := int64(0)
			for _, k := range h.kernels {
				rolled += k.Stats.Rollbacks.Value() + k.Stats.Annihilations.Value()
			}
			if calls == 0 || rolled == 0 {
				t.Fatalf("%v seed %d: %d calls checked, %d rollbacks+annihilations: the run exercised nothing", policy, seed, calls, rolled)
			}
		}
	}

	// White box: timestamps at both ends of the signed range, at the sign
	// change and at Infinity (which an idle object's key also carries),
	// object ids of both signs, heads pushed, popped and removed at random.
	ids := []ObjectID{math.MinInt32, -7, -1, 0, 1, 2, 1 << 20, math.MaxInt32}
	stamps := []vtime.VTime{math.MinInt64, math.MinInt64 + 1, -5, -1, 0, 1, 5, vtime.Infinity - 1, vtime.Infinity}
	for seed := uint64(1); seed <= 20; seed++ {
		k := NewKernel(Config{})
		for _, id := range ids {
			k.AddObject(id, &nullTestObject{})
		}
		k.Bootstrap()
		checkSched(t, k)
		rnd := rng.New(seed)
		for step := 0; step < 400; step++ {
			o := k.order[rnd.Intn(len(k.order))]
			switch n := o.pending.Len(); {
			case n == 0 || rnd.Bool(0.5):
				ev := &Event{ID: uint64(step), Dst: o.id, Sign: 1, RecvTS: stamps[rnd.Intn(len(stamps))]}
				if rnd.Bool(0.3) {
					ev.RecvTS = vtime.VTime(rnd.UniformInt64(-3, 3))
				}
				o.pendPush(ev)
			case rnd.Bool(0.5):
				o.pendPop()
			default:
				o.pendRemove(o.pending.s[rnd.Intn(n)].ev)
			}
			k.fixSched(o)
			checkSched(t, k)
		}
	}
}

// TestPendingEventBelongsToOwner pins the fact the scheduler key rests on:
// an event can only be queued on the object it is addressed to.
func TestPendingEventBelongsToOwner(t *testing.T) {
	k := NewKernel(Config{})
	k.AddObject(1, &nullTestObject{})
	k.AddObject(2, &nullTestObject{})
	k.Bootstrap()
	defer func() {
		if recover() == nil {
			t.Fatal("pendPush accepted an event addressed to another object")
		}
	}()
	k.objs[1].pendPush(&Event{Dst: 2, Sign: 1, RecvTS: 1})
}
