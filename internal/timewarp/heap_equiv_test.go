package timewarp

import (
	"container/heap"
	"testing"
	"testing/quick"

	"nicwarp/internal/vtime"
)

// oldEventHeap is the retired container/heap pending-queue implementation,
// kept here as the reference oracle: the specialized replacement must pop
// events in exactly the same order under any push/pop/cancel interleaving —
// including the structural order of Compare-equal ties, which is why
// pendHeap mirrors container/heap's binary sift mechanics.
type oldEventHeap []*Event

func (h oldEventHeap) Len() int            { return len(h) }
func (h oldEventHeap) Less(i, j int) bool  { return h[i].Before(h[j]) }
func (h oldEventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *oldEventHeap) Push(x interface{}) { *h = append(*h, x.(*Event)) }
func (h *oldEventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// removeIdentity is the retired O(n) cancellation: scan for the identity
// match and heap.Remove it.
func (h *oldEventHeap) removeIdentity(ev *Event) *Event {
	for i, p := range *h {
		if sameIdentity(p, ev) {
			return heap.Remove(h, i).(*Event)
		}
	}
	return nil
}

// TestPendingHeapMatchesContainerHeap drives the new pending heap and the
// old container/heap implementation through identical random
// push/pop/cancel interleavings generated from a seed, and requires the two
// to agree on every popped and cancelled event. Here every event gets a
// unique ID, so the full (RecvTS, Dst, SendTS, Src, ID) order is strict and
// pop order is simply the sorted order for both layouts.
func TestPendingHeapMatchesContainerHeap(t *testing.T) {
	f := func(seed uint64, steps uint16) bool {
		rng := seed | 1
		next := func() uint64 {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			return rng
		}
		var nu pendHeap
		var old oldEventHeap
		var live []*Event // identities currently in both heaps
		n := 64 + int(steps)%1024
		id := uint64(0)
		for step := 0; step < n; step++ {
			switch op := next() % 8; {
			case op < 4 || nu.Len() == 0:
				// Push the same identity into both; separate copies so the
				// intrusive pos of the new heap cannot leak into the old.
				ev := &Event{
					ID:     id,
					Src:    ObjectID(next() % 8),
					Dst:    ObjectID(next() % 8),
					SendTS: vtime.VTime(next() % 512),
					RecvTS: vtime.VTime(next() % 512),
					Sign:   1,
				}
				id++
				cp := *ev
				nu.Push(ev)
				heap.Push(&old, &cp)
				live = append(live, ev)
			case op < 6:
				a := nu.Pop()
				b := heap.Pop(&old).(*Event)
				if !sameIdentity(a, b) {
					t.Logf("pop diverged: %v vs %v", a, b)
					return false
				}
				live = drop(live, a)
			default:
				// Cancel a random live identity: indexed O(log n) removal on
				// the new heap, scan-and-Remove on the old.
				victim := live[int(next()%uint64(len(live)))]
				nu.Remove(int(victim.pos))
				if old.removeIdentity(victim) == nil {
					t.Logf("old heap missing identity %v", victim)
					return false
				}
				live = drop(live, victim)
			}
		}
		for nu.Len() > 0 {
			a := nu.Pop()
			b := heap.Pop(&old).(*Event)
			if !sameIdentity(a, b) {
				return false
			}
		}
		return old.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestPendingHeapPreservesTieOrder is the sharper version of the test
// above: it floods both heaps with events drawn from a tiny key space so
// many coexisting events Compare equal (same RecvTS, Dst, SendTS, Src and
// ID — the shape a rolled-back send re-sent with a different payload makes
// when it overtakes its anti-message), while unique payloads
// make every instance distinguishable. For such ties the pop order is
// decided purely by heap structure, so this test fails for any layout that
// does not reproduce container/heap's binary sift mechanics — it is the
// regression guard that keeps pendHeap's arity and Remove strategy honest.
func TestPendingHeapPreservesTieOrder(t *testing.T) {
	f := func(seed uint64, steps uint16) bool {
		rng := seed | 1
		next := func() uint64 {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			return rng
		}
		var nu pendHeap
		var old oldEventHeap
		var live []*Event
		n := 64 + int(steps)%1024
		payload := uint64(0)
		for step := 0; step < n; step++ {
			switch op := next() % 8; {
			case op < 4 || nu.Len() == 0:
				ev := &Event{
					ID:      next() % 4,
					Src:     ObjectID(next() % 2),
					Dst:     0,
					SendTS:  vtime.VTime(next() % 4),
					RecvTS:  vtime.VTime(next() % 8),
					Sign:    1,
					Payload: payload,
				}
				payload++
				cp := *ev
				nu.Push(ev)
				heap.Push(&old, &cp)
				live = append(live, ev)
			case op < 6:
				a := nu.Pop()
				b := heap.Pop(&old).(*Event)
				if !sameIdentity(a, b) {
					t.Logf("tie pop diverged at step %d: %v pay=%d vs %v pay=%d", step, a, a.Payload, b, b.Payload)
					return false
				}
				live = drop(live, a)
			default:
				victim := live[int(next()%uint64(len(live)))]
				nu.Remove(int(victim.pos))
				if old.removeIdentity(victim) == nil {
					t.Logf("old heap missing identity %v pay=%d", victim, victim.Payload)
					return false
				}
				live = drop(live, victim)
			}
		}
		for nu.Len() > 0 {
			a := nu.Pop()
			b := heap.Pop(&old).(*Event)
			if !sameIdentity(a, b) {
				return false
			}
		}
		return old.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestPendingIndexFindPrefersLowestSlot pins pendIndex.find's duplicate
// tie-break: among several pending events with the same full identity it
// must return the instance lowest in the heap array — the one the retired
// linear scan hit first — so which duplicate an annihilation removes, and
// hence the heap's structural evolution, matches the old implementation.
func TestPendingIndexFindPrefersLowestSlot(t *testing.T) {
	var h pendHeap
	var ix pendIndex
	mk := func(recv vtime.VTime) *Event {
		ev := &Event{ID: 7, Src: 1, Dst: 0, SendTS: 1, RecvTS: recv, Sign: 1, Payload: 42}
		ix.add(ev)
		h.Push(ev)
		return ev
	}
	// Spread three identical duplicates through the heap with filler
	// events in between so their slots differ.
	for i := 0; i < 8; i++ {
		f := &Event{ID: 100 + uint64(i), Src: 2, Dst: 0, SendTS: 1, RecvTS: vtime.VTime(1 + i), Sign: 1}
		ix.add(f)
		h.Push(f)
	}
	dups := []*Event{mk(5), mk(5), mk(5)}
	probe := &Event{ID: 7, Src: 1, Dst: 0, SendTS: 1, RecvTS: 5, Sign: -1, Payload: 42}
	for len(dups) > 0 {
		want := dups[0]
		for _, d := range dups[1:] {
			if d.pos < want.pos {
				want = d
			}
		}
		found := ix.find(probe)
		if found != want {
			t.Fatalf("find returned slot %d, lowest duplicate is at slot %d", found.pos, want.pos)
		}
		h.Remove(int(found.pos))
		ix.del(found)
		dups = drop(dups, found)
	}
	if ix.find(probe) != nil {
		t.Fatal("find returned an event after all duplicates were removed")
	}
}

// drop removes the first pointer-equal entry from s.
func drop(s []*Event, ev *Event) []*Event {
	for i, e := range s {
		if e == ev {
			s[i] = s[len(s)-1]
			return s[:len(s)-1]
		}
	}
	return s
}

// TestPendingIndexConsistency hammers two objects' pending queues through
// the kernel API (deliver, anti-cancel, process, rollback-reinsert) and
// checks after every operation that the kernel's one identity index and the
// heaps agree exactly — the invariant the O(log n) cancellation path stands
// on. Every positive goes to both objects with the same ID, so the index
// chains twins that differ only in Dst, and an anti must take its own.
func TestPendingIndexConsistency(t *testing.T) {
	k := NewKernel(Config{LP: 0})
	k.AddObject(0, &nullTestObject{})
	k.AddObject(1, &nullTestObject{})
	k.Bootstrap()

	check := func(when string) {
		t.Helper()
		pending := 0
		for i := range k.order {
			pending += k.order[i].pending.Len()
		}
		if k.pindex.n != pending {
			t.Fatalf("%s: index counts %d events for %d pending", when, k.pindex.n, pending)
		}
		indexed := 0
		for b, head := range k.pindex.buckets {
			for p := head; p != nil; p = p.inext {
				indexed++
				if k.pindex.bucket(p.ID) != b {
					t.Fatalf("%s: event %v chained in bucket %d, hashes to %d", when, p, b, k.pindex.bucket(p.ID))
				}
				o := k.local(p.Dst)
				if int(p.pos) < 0 || int(p.pos) >= o.pending.Len() || o.pending.s[p.pos].ev != p {
					t.Fatalf("%s: indexed event %v has stale pos %d", when, p, p.pos)
				}
			}
		}
		if indexed != pending {
			t.Fatalf("%s: %d indexed vs %d pending", when, indexed, pending)
		}
	}

	rng := uint64(7)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	var sent []Event
	ts := vtime.VTime(1)
	for step := 0; step < 3000; step++ {
		switch op := next() % 10; {
		case op < 5 || len(sent) == 0:
			ts += vtime.VTime(next()%5 + 1)
			ev := Event{ID: uint64(step), Src: 99, SendTS: ts - 1, RecvTS: ts, Sign: 1, Payload: next()}
			for ev.Dst = 0; ev.Dst < 2; ev.Dst++ {
				k.Deliver(&ev)
				sent = append(sent, ev)
				check("deliver")
			}
		case op < 7:
			if k.HasWork() {
				k.ProcessOne()
				check("process")
			}
		default:
			i := int(next() % uint64(len(sent)))
			anti := sent[i]
			anti.Sign = -1
			k.Deliver(&anti)
			sent[i] = sent[len(sent)-1]
			sent = sent[:len(sent)-1]
			check("anti")
		}
	}
}

// nullTestObject is a minimal deterministic object for queue-focused tests.
type nullTestObject struct{ n uint64 }

func (x *nullTestObject) Init(*Context)              {}
func (x *nullTestObject) Execute(*Context, *Event)   { x.n++ }
func (x *nullTestObject) SaveState() interface{}     { return x.n }
func (x *nullTestObject) RestoreState(s interface{}) { x.n = s.(uint64) }
func (x *nullTestObject) Digest() uint64             { return DigestMix(0, x.n) }
