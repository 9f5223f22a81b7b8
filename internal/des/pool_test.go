package des

import (
	"runtime"
	"testing"

	"nicwarp/internal/vtime"
)

// TestCancelDropsCallback is the regression test for the timer retention
// bug: a cancelled timer handle used to pin the cancelled *event and its
// captured closure until the handle itself was dropped.
func TestCancelDropsCallback(t *testing.T) {
	e := NewEngine()
	captured := make([]byte, 1<<20)
	tm := atFunc(e, 10, func() { captured[0]++ })
	if !tm.Cancel() {
		t.Fatal("Cancel reported no effect on a pending timer")
	}
	if cb := e.arena[tm.ei].cb; cb.arg != nil || cb.fnArg != nil {
		t.Fatal("cancelled event still holds its callback closure")
	}
	e.Run(100)
	if captured[0] != 0 {
		t.Fatal("cancelled callback ran")
	}
}

// TestStaleTimerCannotCancelRecycledEvent: after an event fires it returns
// to the free list and is reused; a handle for the old incarnation must not
// cancel the new one.
func TestStaleTimerCannotCancelRecycledEvent(t *testing.T) {
	e := NewEngine()
	fired := 0
	t1 := atFunc(e, 1, func() { fired++ })
	e.Run(1) // t1 fires; its event is recycled
	atFunc(e, 2, func() { fired += 10 })
	if t1.Cancel() {
		t.Fatal("stale handle cancelled a recycled event")
	}
	e.Run(10)
	if fired != 11 {
		t.Fatalf("fired = %d, want 11 (stale cancel must not suppress the reused event)", fired)
	}
}

func TestCancelledEventIsReused(t *testing.T) {
	e := NewEngine()
	tm := atFunc(e, 5, func() {})
	ei := tm.ei
	tm.Cancel()
	tm2 := atFunc(e, 7, func() {})
	if tm2.ei != ei {
		t.Fatal("cancelled event slot was not recycled for the next schedule")
	}
	if tm.Cancel() {
		t.Fatal("old handle cancelled the recycled event")
	}
}

func TestAtArg(t *testing.T) {
	e := NewEngine()
	var got []int
	fn := func(x interface{}) { got = append(got, *x.(*int)) }
	a, b := 1, 2
	e.AtArg(5, fn, &b)
	e.AtArg(3, fn, &a)
	e.Run(10)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("got %v, want [1 2]", got)
	}
}

// TestSteadyStateSchedulingDoesNotAllocate proves the free list works: after
// warmup, a schedule/fire cycle through AtArg and Resource.SubmitArg
// performs zero heap allocations.
func TestSteadyStateSchedulingDoesNotAllocate(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "r")
	n := 0
	tick := func(interface{}) { n++ }
	// Warm up the free list and the resource's completion ring.
	for i := 0; i < 8; i++ {
		e.AtArg(e.Now()+1, tick, nil)
		r.SubmitArg(1, tick, nil)
		e.Run(e.Now() + 10)
	}
	allocs := testing.AllocsPerRun(100, func() {
		e.AtArg(e.Now()+1, tick, nil)
		r.SubmitArg(1, tick, nil)
		e.Run(e.Now() + 10)
	})
	if allocs > 0 {
		t.Fatalf("steady-state schedule/fire allocated %.1f times per run, want 0", allocs)
	}
}

// TestResourceFIFOWithMixedSubmits checks completion order across SubmitArg
// and SubmitArg2 interleavings, including zero-cost jobs at the same instant.
func TestResourceFIFOWithMixedSubmits(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "mix")
	var order []int
	addArg := func(x interface{}) { order = append(order, x.(int)) }
	addArg2 := func(_, x interface{}) { order = append(order, x.(int)) }
	r.SubmitArg2(5, addArg2, nil, 0)
	r.SubmitArg(0, addArg, 1)
	r.SubmitArg2(0, addArg2, nil, 2)
	r.SubmitArg(3, addArg, 3)
	r.SubmitArg(2, nil, nil) // nil done must not disturb the ring
	r.SubmitArg(1, addArg, 4)
	e.Run(100)
	want := []int{0, 1, 2, 3, 4}
	if len(order) != len(want) {
		t.Fatalf("order %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
	if r.Jobs.Value() != 6 {
		t.Fatalf("jobs = %d, want 6", r.Jobs.Value())
	}
}

// TestCancelReleasesCapturedMemory is a finalizer-based check that the
// closure captured by a cancelled timer becomes collectable while its handle
// is still live.
func TestCancelReleasesCapturedMemory(t *testing.T) {
	e := NewEngine()
	collected := make(chan struct{})
	tm := func() TimerRef {
		big := new([1 << 16]byte)
		runtime.SetFinalizer(big, func(*[1 << 16]byte) { close(collected) })
		return atFunc(e, vtime.ModelTime(10), func() { _ = big[0] })
	}()
	tm.Cancel()
	for i := 0; i < 10; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		default:
		}
	}
	t.Fatal("captured state of a cancelled timer was not collected")
}
