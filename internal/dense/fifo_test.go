package dense

import (
	"math/rand"
	"testing"
)

// TestFIFOMatchesSlice drives a FIFO and a plain slice queue through random
// pushes, pops (by value and in place) and tail drops and compares them
// throughout.
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
		switch r := rng.Intn(10); {
		case r == 9 && len(ref) > 0:
			n := rng.Intn(len(ref) + 1)
			f.DropTail(n)
			ref = ref[:len(ref)-n]
		case r < pushBias:
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

// TestFIFOPinsNothing: a slot an entry has left — by pop or by compaction —
// is zeroed, so the queue's backing array never keeps a departed pointer
// reachable.
func TestFIFOPinsNothing(t *testing.T) {
	var f FIFO[*int]
	for round := 0; round < 50; round++ {
		for i := 0; i < 1+round%7; i++ {
			f.Push(new(int))
		}
		for i := 0; i < 1+round%5 && f.Len() > 0; i++ {
			f.Pop()
		}
		if round%3 == 0 {
			f.DropTail(f.Len() / 2)
		}
		backing := f.q[:cap(f.q)]
		for i, p := range backing {
			if live := i >= f.head && i < len(f.q); !live && p != nil {
				t.Fatalf("round %d: dead slot %d still holds a pointer (head %d, len %d)", round, i, f.head, len(f.q))
			}
		}
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
