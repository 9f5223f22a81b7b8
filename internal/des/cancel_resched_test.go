package des

import "testing"

// The tests below pin the TimerRef generation check against the free-list
// recycling that cancel and fire perform: a cancelled event's struct is
// reused by the very next schedule, so a same-tick reschedule lands in the
// same *event allocation. Only the seq generation stands between a stale
// handle and the new incarnation's callback.

// TestCancelThenSameTickRescheduleDoesNotResurrect cancels a timer and
// immediately schedules a different callback at the identical virtual time.
// The cancelled callback must stay dead, the replacement must run exactly
// once, and the stale handle must be inert against the recycled event.
func TestCancelThenSameTickRescheduleDoesNotResurrect(t *testing.T) {
	e := NewEngine()
	oldFired, newFired := 0, 0
	tm := atFunc(e, 10, func() { oldFired++ })
	if !tm.Cancel() {
		t.Fatal("first Cancel must take effect")
	}
	// Same-tick reschedule: alloc pops the just-recycled struct, so the new
	// event shares the old event's memory but not its generation.
	atFunc(e, 10, func() { newFired++ })
	if tm.Cancel() {
		t.Fatal("stale handle cancelled the recycled event's new incarnation")
	}
	e.Run(100)
	if oldFired != 0 {
		t.Fatalf("cancelled callback resurrected: fired %d times", oldFired)
	}
	if newFired != 1 {
		t.Fatalf("replacement callback fired %d times, want 1", newFired)
	}
}

// TestCancelThenSameTickScheduleArg is the closure-free variant: the
// cancelled timer's event is reused by an AtArg at the same instant. The
// recycled event must carry only the threaded argument callback.
func TestCancelThenSameTickScheduleArg(t *testing.T) {
	e := NewEngine()
	oldFired := 0
	got := make([]int, 0, 1)
	tm := atFunc(e, 5, func() { oldFired++ })
	tm.Cancel()
	e.AtArg(5, func(arg interface{}) { got = append(got, arg.(int)) }, 42)
	if tm.Cancel() {
		t.Fatal("stale handle must not affect the AtArg incarnation")
	}
	e.Run(100)
	if oldFired != 0 {
		t.Fatalf("cancelled closure fired %d times", oldFired)
	}
	if len(got) != 1 || got[0] != 42 {
		t.Fatalf("AtArg callback got %v, want [42]", got)
	}
}

// TestFiredTimerHandleInertAfterSameTickReuse lets a timer fire, schedules a
// new callback from inside the firing callback at the same instant (which
// reuses the fired event's struct), and checks the fired timer's handle
// cannot cancel the reused incarnation.
func TestFiredTimerHandleInertAfterSameTickReuse(t *testing.T) {
	e := NewEngine()
	chained := 0
	var tm TimerRef
	tm = atFunc(e, 7, func() {
		// fire() recycles before invoking, so this At reuses tm's event.
		atFunc(e, 7, func() { chained++ })
		if tm.Cancel() {
			t.Error("handle of a fired timer cancelled its event's reuse")
		}
	})
	e.Run(100)
	if chained != 1 {
		t.Fatalf("chained same-tick callback fired %d times, want 1", chained)
	}
	if tm.Cancel() {
		t.Fatal("cancel of a fired timer took effect")
	}
}

// TestDoubleCancelIsNoOp pins Cancel idempotence across recycling: the
// second Cancel of the same handle reports false even after the event
// struct has been reissued and cancelled again under a new generation.
func TestDoubleCancelIsNoOp(t *testing.T) {
	e := NewEngine()
	a := atFunc(e, 3, func() { t.Error("cancelled A fired") })
	if !a.Cancel() || a.Cancel() {
		t.Fatal("Cancel must report true exactly once")
	}
	b := atFunc(e, 3, func() { t.Error("cancelled B fired") })
	if !b.Cancel() {
		t.Fatal("second-generation Cancel must take effect")
	}
	if a.Cancel() {
		t.Fatal("stale handle re-cancelled across generations")
	}
	e.Run(100)
	if a.Cancel() || b.Cancel() {
		t.Fatal("a cancelled handle's Cancel took effect again")
	}
}
