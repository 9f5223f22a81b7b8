package des

import (
	"testing"
	"testing/quick"

	"nicwarp/internal/vtime"
)

func TestRunOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(30, func() { order = append(order, 3) })
	e.Schedule(10, func() { order = append(order, 1) })
	e.Schedule(20, func() { order = append(order, 2) })
	e.Run(vtime.ModelInfinity)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if e.Now() != 30 {
		t.Fatalf("clock = %v, want 30", e.Now())
	}
}

func TestFIFOTieBreak(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { order = append(order, i) })
	}
	e.Run(vtime.ModelInfinity)
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-break violated FIFO: %v", order)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine()
	var hits []vtime.ModelTime
	e.Schedule(10, func() {
		hits = append(hits, e.Now())
		e.Schedule(5, func() {
			hits = append(hits, e.Now())
		})
	})
	e.Run(vtime.ModelInfinity)
	if len(hits) != 2 || hits[0] != 10 || hits[1] != 15 {
		t.Fatalf("hits = %v", hits)
	}
}

func TestRunLimit(t *testing.T) {
	e := NewEngine()
	ran := 0
	e.Schedule(10, func() { ran++ })
	e.Schedule(20, func() { ran++ })
	e.Schedule(30, func() { ran++ })
	e.Run(20)
	if ran != 2 {
		t.Fatalf("ran = %d, want 2 (event at limit must run)", ran)
	}
	if e.heap.Len() != 1 {
		t.Fatalf("pending = %d, want 1", e.heap.Len())
	}
	e.Run(vtime.ModelInfinity)
	if ran != 3 {
		t.Fatalf("ran = %d after resume, want 3", ran)
	}
}

func TestZeroDelay(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(0, func() {
		order = append(order, 1)
		e.Schedule(0, func() { order = append(order, 2) })
	})
	e.Run(vtime.ModelInfinity)
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("order = %v", order)
	}
	if e.Now() != 0 {
		t.Fatalf("clock moved on zero-delay events: %v", e.Now())
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewEngine().Schedule(-1, func() {})
}

func TestAtInPastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic for At in the past")
			}
		}()
		e.At(5, func() {})
	})
	e.Run(vtime.ModelInfinity)
}

func TestTimerCancel(t *testing.T) {
	e := NewEngine()
	ran := false
	timer := e.Schedule(10, func() { ran = true })
	if !timer.Cancel() {
		t.Fatal("first cancel should succeed")
	}
	if timer.Cancel() {
		t.Fatal("second cancel should be a no-op")
	}
	e.Run(vtime.ModelInfinity)
	if ran {
		t.Fatal("cancelled callback ran")
	}
	if e.heap.Len() != 0 {
		t.Fatal("cancelled event left in heap")
	}
}

func TestCancelAfterFireIsNoop(t *testing.T) {
	e := NewEngine()
	timer := e.Schedule(1, func() {})
	e.Run(vtime.ModelInfinity)
	if timer.Cancel() {
		t.Fatal("cancel after fire should report false")
	}
}

func TestCancelMiddleOfHeap(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(10, func() { order = append(order, 1) })
	mid := e.Schedule(20, func() { order = append(order, 2) })
	e.Schedule(30, func() { order = append(order, 3) })
	mid.Cancel()
	e.Run(vtime.ModelInfinity)
	if len(order) != 2 || order[0] != 1 || order[1] != 3 {
		t.Fatalf("order = %v", order)
	}
}

func TestStep(t *testing.T) {
	e := NewEngine()
	ran := 0
	e.Schedule(1, func() { ran++ })
	e.Schedule(2, func() { ran++ })
	if !e.Step() {
		t.Fatal("Step should run first event")
	}
	if ran != 1 {
		t.Fatalf("ran = %d", ran)
	}
	e.Step()
	if e.Step() {
		t.Fatal("Step on empty heap should report false")
	}
}

func TestProcessedCount(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 5; i++ {
		e.Schedule(vtime.ModelTime(i), func() {})
	}
	e.Run(vtime.ModelInfinity)
	if e.Processed() != 5 {
		t.Fatalf("processed = %d", e.Processed())
	}
}

// TestMonotonicClock verifies as a property that for any delay sequence the
// observed callback times are nondecreasing.
func TestMonotonicClock(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine()
		var seen []vtime.ModelTime
		for _, d := range delays {
			e.Schedule(vtime.ModelTime(d), func() { seen = append(seen, e.Now()) })
		}
		e.Run(vtime.ModelInfinity)
		for i := 1; i < len(seen); i++ {
			if seen[i] < seen[i-1] {
				return false
			}
		}
		return len(seen) == len(delays)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestReentrantRunPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(1, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic for reentrant Run")
			}
		}()
		e.Run(vtime.ModelInfinity)
	})
	e.Run(vtime.ModelInfinity)
}
