package des

import (
	"math/rand"
	"sort"
	"testing"
	"unsafe"

	"nicwarp/internal/vtime"
)

// checkHeap asserts the engine and its event list agree on which arena
// slots are scheduled: exactly Len() slots are on the heap and none of them
// is on the free list. (The heap's own order and position-index invariants
// are checked slot by slot against the reference model in d4heap's tests.)
func checkHeap(t *testing.T, e *Engine) {
	t.Helper()
	on := 0
	for ei := range e.arena {
		if e.heap.Has(uint32(ei)) {
			on++
		}
	}
	if on != e.heap.Len() {
		t.Fatalf("heap: %d events indexed, Len() = %d", on, e.heap.Len())
	}
	for _, ei := range e.free {
		if e.heap.Has(ei) {
			t.Fatalf("heap: recycled slot %d is still scheduled", ei)
		}
	}
}

// TestEventIsOneCacheLine pins the size of the two records that carry a
// callback: the arena is walked by slot index on every fire and a
// resource's ring entry on every completion, and a record that straddles
// two lines doubles that traffic.
func TestEventIsOneCacheLine(t *testing.T) {
	if n := unsafe.Sizeof(event{}); n != 64 {
		t.Fatalf("event is %d bytes, want 64", n)
	}
	if n := unsafe.Sizeof(doneEntry{}); n != 64 {
		t.Fatalf("doneEntry is %d bytes, want 64", n)
	}
}

// TestNegativeTimeKeyPanics: the event list compares times unsigned, so a
// negative one must never reach it.
func TestNegativeTimeKeyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("eventKey accepted a negative time")
		}
	}()
	eventKey(-1, 1)
}

// refEvent is one scheduled callback in the sorted reference model. On a
// single lane the order key grows with every At, so (at, id) is the
// engine's (at, seq) order.
type refEvent struct {
	at vtime.ModelTime
	id int
	tm TimerRef
}

// heapModel plays random At/Cancel/Step against an engine and a sorted
// slice, with callbacks that exercise every state a vacated root can meet:
// the callback schedules (the insert refills the root), schedules nothing
// (the hole is closed after it returns), cancels another timer while the
// root is vacant, reads Pending, or panics.
type heapModel struct {
	t      *testing.T
	e      *Engine
	rng    *rand.Rand
	live   []refEvent // sorted by (at, id)
	nextID int
	fired  uint64
}

func (m *heapModel) schedule() {
	id := m.nextID
	m.nextID++
	at := m.e.Now() + vtime.ModelTime(m.rng.Intn(40))
	tm := atFunc(m.e, at, func() { m.callback(id) })
	i := sort.Search(len(m.live), func(i int) bool { return m.live[i].at > at })
	m.live = append(m.live, refEvent{})
	copy(m.live[i+1:], m.live[i:])
	m.live[i] = refEvent{at, id, tm}
}

func (m *heapModel) cancelRandom() {
	if len(m.live) == 0 {
		return
	}
	i := m.rng.Intn(len(m.live))
	if !m.live[i].tm.Cancel() {
		m.t.Fatalf("cancel of live event %d had no effect", m.live[i].id)
	}
	if m.live[i].tm.Cancel() {
		m.t.Fatalf("second cancel of event %d took effect", m.live[i].id)
	}
	m.live = append(m.live[:i], m.live[i+1:]...)
}

func (m *heapModel) agree(when string) {
	m.t.Helper()
	if m.e.heap.Len() != len(m.live) {
		m.t.Fatalf("%s: %d events pending, reference holds %d", when, m.e.heap.Len(), len(m.live))
	}
	checkHeap(m.t, m.e)
}

// callback runs as event id, which must be the reference's earliest.
func (m *heapModel) callback(id int) {
	if len(m.live) == 0 || m.live[0].id != id || m.live[0].at != m.e.Now() {
		m.t.Fatalf("fired event %d at %v, reference expected %+v", id, m.e.Now(), m.live)
	}
	m.live = m.live[1:]
	m.fired++
	m.agree("on entry to a callback")
	switch m.rng.Intn(7) {
	case 0: // nothing scheduled: the hole is closed after the callback
	case 1: // one insert refills the root
		m.schedule()
	case 2: // refill, then ordinary pushes
		m.schedule()
		m.schedule()
	case 3: // cancel while the root is vacant
		m.cancelRandom()
	case 4: // cancel closes the hole; the insert after it is an ordinary push
		m.cancelRandom()
		m.schedule()
	case 5: // refill, then cancel on the whole heap
		m.schedule()
		m.cancelRandom()
	case 6:
		if m.rng.Intn(2) == 0 {
			m.schedule()
		}
		m.agree("before panicking")
		panic("callback failure")
	}
	m.agree("on exit from a callback")
}

// step fires the reference's earliest event — through Step, or through a
// Run bounded to that instant, which goes on to fire whatever else is due
// by then — recovering a callback panic the way a test harness would.
func (m *heapModel) step(useRun bool) {
	n := m.fired
	func() {
		defer func() { _ = recover() }()
		if useRun {
			m.e.Run(m.live[0].at)
		} else if !m.e.Step() {
			m.t.Fatal("Step reported an empty engine")
		}
	}()
	if m.fired == n {
		m.t.Fatal("nothing fired")
	}
	m.agree("after a step")
}

func TestHeapMatchesSortedReference(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		m := &heapModel{t: t, e: NewEngine(), rng: rand.New(rand.NewSource(seed))}
		for op := 0; op < 600; op++ {
			switch r := m.rng.Intn(10); {
			case r < 3:
				m.schedule()
			case r < 4:
				m.cancelRandom()
			case len(m.live) > 0:
				m.step(r == 9)
			}
			m.agree("between operations")
			// Every so often drain to empty, so single-element and empty
			// heaps meet every callback behaviour too.
			if op%150 == 149 {
				for len(m.live) > 0 {
					m.step(false)
				}
			}
		}
		if m.e.Processed() != m.fired {
			t.Fatalf("seed %d: processed %d, fired %d", seed, m.e.Processed(), m.fired)
		}
	}
}

// TestVacatedRootSingleElement walks the one-event heap through each way a
// vacated root can end.
func TestVacatedRootSingleElement(t *testing.T) {
	e := NewEngine()
	// No insert: the hole closes over an empty heap.
	atFunc(e, 1, func() {
		if e.heap.Len() != 0 {
			t.Errorf("pending inside the only event = %d", e.heap.Len())
		}
	})
	e.Run(vtime.ModelInfinity)
	checkHeap(t, e)
	// Insert: the successor refills the root of an otherwise empty heap.
	ran := false
	atFunc(e, 2, func() {
		atFunc(e, 3, func() { ran = true })
		if e.heap.Len() != 1 {
			t.Errorf("pending after refill = %d", e.heap.Len())
		}
	})
	e.Run(vtime.ModelInfinity)
	checkHeap(t, e)
	if !ran || e.Now() != 3 || e.heap.Len() != 0 {
		t.Fatalf("ran=%v now=%v pending=%d", ran, e.Now(), e.heap.Len())
	}
	// Cancel of the only other event while the root is vacant, then panic.
	victim := atFunc(e, 9, func() { t.Error("cancelled event fired") })
	atFunc(e, 5, func() {
		if !victim.Cancel() {
			t.Error("cancel inside a callback had no effect")
		}
		panic("boom")
	})
	func() {
		defer func() {
			if recover() == nil {
				t.Error("panic did not propagate out of Run")
			}
		}()
		e.Run(vtime.ModelInfinity)
	}()
	checkHeap(t, e)
	if e.heap.Len() != 0 {
		t.Fatalf("pending after panic = %d", e.heap.Len())
	}
	// The engine is still usable.
	atFunc(e, 6, func() { ran = false })
	e.Run(vtime.ModelInfinity)
	if ran || e.Now() != 6 {
		t.Fatalf("engine unusable after a recovered panic: ran=%v now=%v", ran, e.Now())
	}
}
