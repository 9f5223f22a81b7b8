package dense

import (
	"fmt"
	"math/rand"
	"testing"
)

// filterInPlace is how a queue loses entries from its middle: the kept ones
// are filtered into Live()'s own prefix, the rest dropped from the tail.
func filterInPlace[T any](f *FIFO[T], keep func(T) bool) {
	live := f.Live()
	kept := live[:0]
	for _, v := range live {
		if keep(v) {
			kept = append(kept, v)
		}
	}
	f.DropTail(len(live) - len(kept))
}

// TestFIFOMatchesSlice drives a FIFO and a plain slice queue through random
// pushes, pops (by value and in place), tail drops and in-place filters, and
// compares them throughout.
func TestFIFOMatchesSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var f FIFO[int]
	var ref []int
	next := 1
	for op := 0; op < 20000; op++ {
		// Lean toward pushes for a while, then toward pops, so the queue
		// both grows past its capacity and drains to empty repeatedly.
		pushBias := 6
		if op/500%2 == 1 {
			pushBias = 3
		}
		switch r := rng.Intn(20); {
		case r == 19 && len(ref) > 0:
			n := rng.Intn(len(ref) + 1)
			f.DropTail(n)
			ref = ref[:len(ref)-n]
		case r == 18 && len(ref) > 0:
			mod := 2 + rng.Intn(3)
			keep := func(v int) bool { return v%mod != 0 }
			filterInPlace(&f, keep)
			kept := ref[:0:0]
			for _, v := range ref {
				if keep(v) {
					kept = append(kept, v)
				}
			}
			ref = kept
		case r/2 < pushBias:
			if r%2 == 0 {
				f.Push(next)
			} else {
				*f.PushSlot() = next
			}
			ref = append(ref, next)
			next++
		case len(ref) > 0:
			if *f.Front() != ref[0] {
				t.Fatalf("op %d: front %d, want %d", op, *f.Front(), ref[0])
			}
			if r%2 == 0 {
				if got := f.Pop(); got != ref[0] {
					t.Fatalf("op %d: pop %d, want %d", op, got, ref[0])
				}
			} else {
				f.Drop()
			}
			ref = ref[1:]
		}
		live := f.Live()
		if f.Len() != len(ref) || len(live) != len(ref) {
			t.Fatalf("op %d: len %d, live %d, want %d", op, f.Len(), len(live), len(ref))
		}
		for i := range ref {
			if live[i] != ref[i] {
				t.Fatalf("op %d: live[%d] = %d, want %d", op, i, live[i], ref[i])
			}
		}
	}
}

// TestFIFOPinsNothing: a slot an entry has left — by pop, by tail drop, by
// an in-place filter or by compaction — is zeroed, so the queue's backing
// array never keeps a departed pointer reachable.
func TestFIFOPinsNothing(t *testing.T) {
	var f FIFO[*int]
	for round := 0; round < 50; round++ {
		for i := 0; i < 1+round%7; i++ {
			f.Push(new(int))
		}
		for i := 0; i < 1+round%5 && f.Len() > 0; i++ {
			f.Pop()
		}
		switch round % 3 {
		case 0:
			f.DropTail(f.Len() / 2)
		case 1:
			i := 0
			filterInPlace(&f, func(*int) bool { i++; return i%2 == 0 })
		}
		backing := f.q[:cap(f.q)]
		for i, p := range backing {
			if live := i >= f.head && i < len(f.q); !live && p != nil {
				t.Fatalf("round %d: dead slot %d still holds a pointer (head %d, len %d)", round, i, f.head, len(f.q))
			}
		}
	}
}

// TestFIFOSlidesConsumedPrefix: a push that finds the backing array full
// while a consumed prefix exists slides the live entries to the front of
// the same array instead of growing it, in order, whatever in-place
// filtering happened in between.
func TestFIFOSlidesConsumedPrefix(t *testing.T) {
	var f FIFO[int]
	next := 0
	for f.Len() < firstCap {
		f.Push(next)
		next++
	}
	for round := 0; round < 20; round++ {
		f.Drop()
		filterInPlace(&f, func(v int) bool { return v%7 != round%7 })
		for len(f.q) < cap(f.q) {
			f.Push(next)
			next++
		}
		want := append([]int(nil), f.Live()...)
		backing := &f.q[:cap(f.q)][0]
		f.Push(next) // len == cap with head > 0: slides
		next++
		if f.head != 0 || &f.q[0] != backing {
			t.Fatalf("round %d: full push with a consumed prefix did not slide in place (head %d)", round, f.head)
		}
		want = append(want, next-1)
		for i, v := range f.Live() {
			if v != want[i] {
				t.Fatalf("round %d: after the slide live = %v, want %v", round, f.Live(), want)
			}
		}
	}
}

// TestFIFOFirstPushAllocatesOnce: an empty queue's first push allocates
// room for firstCap entries at once, so filling that far costs one
// allocation, not the four of growing 1→2→4→8.
func TestFIFOFirstPushAllocatesOnce(t *testing.T) {
	var keep [][]int
	allocs := testing.AllocsPerRun(100, func() {
		var f FIFO[int]
		for i := 0; i < firstCap; i++ {
			f.Push(i)
		}
		keep = append(keep[:0], f.q)
	})
	if allocs != 1 {
		t.Fatalf("filling a fresh queue to %d entries allocated %.1f times, want 1", firstCap, allocs)
	}
}

// TestFIFOBoundedDepthStopsAllocating: a queue that never holds more than a
// few entries reuses its consumed prefix instead of growing.
func TestFIFOBoundedDepthStopsAllocating(t *testing.T) {
	var f FIFO[[2]int]
	cycle := func() {
		for i := 0; i < 5; i++ {
			f.Push([2]int{i, i})
		}
		for i := 0; i < 4; i++ {
			f.Drop()
		}
		f.Push([2]int{9, 9})
		f.Drop()
		f.Drop()
	}
	cycle()
	if allocs := testing.AllocsPerRun(200, cycle); allocs > 0 {
		t.Fatalf("bounded-depth cycle allocated %.1f times per run, want 0", allocs)
	}
}

// TestFIFOOnSharedArray: a queue started on a three-index sub-slice of an
// array it shares with neighbours fills its own slots without allocating,
// compacts within them, and once it outgrows them moves to an array of its
// own, zeroing the slots it leaves: no step ever writes a neighbour's slot.
func TestFIFOOnSharedArray(t *testing.T) {
	const slots = 4
	shared := make([]int, 3*slots)
	for i := range shared {
		shared[i] = -1
	}
	own := shared[slots : 2*slots]
	neighboursIntact := func(when string) {
		t.Helper()
		for i, v := range shared {
			if (i < slots || i >= 2*slots) && v != -1 {
				t.Fatalf("%s: neighbour slot %d holds %d", when, i, v)
			}
		}
	}
	var f FIFO[int]
	fill := func() {
		f.On(shared[slots : slots : 2*slots])
		for i := 0; i < slots; i++ {
			f.Push(i)
		}
	}
	if allocs := testing.AllocsPerRun(10, fill); allocs != 0 {
		t.Fatalf("filling %d own slots allocated %.1f times, want 0", slots, allocs)
	}
	neighboursIntact("after filling")

	// Consume two, push two: the second push compacts in place.
	f.Drop()
	f.Drop()
	if allocs := testing.AllocsPerRun(1, func() { f.Push(4); f.Push(5); f.Drop(); f.Drop() }); allocs != 0 {
		t.Fatalf("compacting allocated %.1f times, want 0", allocs)
	}
	f.Push(6)
	f.Push(7)
	neighboursIntact("after compacting")
	if want := []int{4, 5, 6, 7}; fmt.Sprint(f.Live()) != fmt.Sprint(want) || fmt.Sprint(own) != fmt.Sprint(want) {
		t.Fatalf("after compacting live = %v in slots %v, want %v in both", f.Live(), own, want)
	}

	// One more outgrows the own slots: the queue moves and zeroes them.
	f.Push(8)
	for v := 9; v < 40; v++ {
		f.Push(v)
		f.Drop()
	}
	neighboursIntact("after growing")
	for i, v := range own {
		if v != 0 {
			t.Fatalf("left-behind slot %d holds %d, want it zeroed", i, v)
		}
	}
	if want := "[35 36 37 38 39]"; fmt.Sprint(f.Live()) != want {
		t.Fatalf("after growing live = %v, want %s", f.Live(), want)
	}
}

// TestQueueStartsOnItsOwnEntries: a Queue holds its first firstCap entries
// in itself, so filling it that far allocates nothing; one more moves it to
// an array of its own, in order, and zeroes the entries it leaves.
func TestQueueStartsOnItsOwnEntries(t *testing.T) {
	q := new(Queue[*int])
	vals := make([]int, firstCap+1)
	fill := func() {
		*q = Queue[*int]{}
		for i := 0; i < firstCap; i++ {
			q.Push(&vals[i])
		}
	}
	if allocs := testing.AllocsPerRun(1, fill); allocs != 0 {
		t.Fatalf("filling a fresh queue to %d entries allocated %.1f times, want 0", firstCap, allocs)
	}
	if &q.Live()[0] != &q.first[0] {
		t.Fatal("a fresh queue must start on its own entries")
	}
	q.Push(&vals[firstCap])
	for i, p := range q.first {
		if p != nil {
			t.Fatalf("left-behind entry %d still points at %d", i, *p)
		}
	}
	for i := range vals {
		if got := q.Pop(); got != &vals[i] {
			t.Fatalf("pop %d returned the wrong entry", i)
		}
	}
}
