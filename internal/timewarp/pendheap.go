package timewarp

import "nicwarp/internal/vtime"

// pendHeap is the per-object pending queue: a binary index-min heap over
// the event total order, specialized so the common case of a sift
// comparison — distinct receive timestamps — reads only the backing array.
// Each slot carries RecvTS inline next to the event pointer; the full
// tie-break chain (Dst, SendTS, Src, ID) dereferences only on equal
// timestamps. Event.pos is the intrusive position index that lets
// anti-message cancellation Remove in O(log n) instead of scanning.
//
// Unlike the engine timer heap and the LP scheduler (both 4-ary), this
// heap MUST stay binary with container/heap's exact sift mechanics:
// Event.Compare is not strict over coexisting pending events. Rollback
// restores the sender's send sequence, so re-execution can re-send a
// rolled-back message ID at the same timestamps with a different payload;
// where delivery is not FIFO (the fault plane's reorder, the kernel's test
// harness) that re-send can arrive before the original's anti-message,
// leaving two live events that Compare equal. For such ties the pop order
// is decided by heap structure, not by the comparator.
// Mirroring the retired container/heap implementation (left child unless
// the right is strictly smaller, sift-down-then-up on Remove) keeps that
// structural order, and hence committed experiment digests, bit-for-bit
// identical. The tie property test in heap_equiv_test.go pins this.
type pendHeap struct {
	s []pendSlot
}

// pendSlot is one heap cell: the receive-timestamp key inline, the event
// aside.
type pendSlot struct {
	recv vtime.VTime
	ev   *Event //nicwarp:owns pending-queue slot; removed before Recycle
}

// firstSlots is how many slots each object's pending heap starts with,
// carried in the object's runtime: the first size dense.FIFO uses.
const firstSlots = 8

// pendArity must be 2: see the type comment — tie order between
// Compare-equal events is part of the observable behavior.
const pendArity = 2

func pendLess(a, b *pendSlot) bool {
	if a.recv != b.recv {
		return a.recv < b.recv
	}
	return a.ev.tieLess(b.ev)
}

// tieLess breaks equal-RecvTS ties with the remainder of the total order
// (Compare minus the leading RecvTS step).
func (e *Event) tieLess(f *Event) bool {
	switch {
	case e.Dst != f.Dst:
		return e.Dst < f.Dst
	case e.SendTS != f.SendTS:
		return e.SendTS < f.SendTS
	case e.Src != f.Src:
		return e.Src < f.Src
	default:
		return e.ID < f.ID
	}
}

func (h *pendHeap) Len() int { return len(h.s) }

// Min returns the lowest pending event. Panics when empty.
func (h *pendHeap) Min() *Event { return h.s[0].ev }

// Push inserts ev keyed by its RecvTS.
//
//nicwarp:hotpath pending-queue insert, executed once per delivered event
func (h *pendHeap) Push(ev *Event) {
	h.s = append(h.s, pendSlot{}) //nicwarp:alloc heap growth, amortized across the run
	h.up(len(h.s)-1, pendSlot{recv: ev.RecvTS, ev: ev})
}

// Pop removes and returns the lowest event. Panics when empty.
//
//nicwarp:hotpath pending-queue extract, executed once per executed event
func (h *pendHeap) Pop() *Event {
	min := h.s[0].ev
	n := len(h.s) - 1
	last := h.s[n]
	h.s[n] = pendSlot{}
	h.s = h.s[:n]
	if n > 0 {
		h.down(0, last)
	}
	min.pos = -1
	return min
}

// Remove deletes the event at slot i (its pos field). O(log n).
//
//nicwarp:hotpath annihilation removal, executed once per cancelled event
func (h *pendHeap) Remove(i int) {
	ev := h.s[i].ev
	n := len(h.s) - 1
	last := h.s[n]
	h.s[n] = pendSlot{}
	h.s = h.s[:n]
	if i < n {
		if i > 0 && pendLess(&last, &h.s[(i-1)/pendArity]) {
			h.up(i, last)
		} else {
			h.down(i, last)
		}
	}
	ev.pos = -1
}

// up sifts e toward the root from the hole at slot i.
func (h *pendHeap) up(i int, e pendSlot) {
	for i > 0 {
		p := (i - 1) / pendArity
		if !pendLess(&e, &h.s[p]) {
			break
		}
		h.s[i] = h.s[p]
		h.s[i].ev.pos = int32(i)
		i = p
	}
	h.s[i] = e
	e.ev.pos = int32(i)
}

// down sifts e toward the leaves, promoting the minimum child per level.
func (h *pendHeap) down(i int, e pendSlot) {
	n := len(h.s)
	for {
		c := i*pendArity + 1
		if c >= n {
			break
		}
		m := c
		end := c + pendArity
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if pendLess(&h.s[j], &h.s[m]) {
				m = j
			}
		}
		if !pendLess(&h.s[m], &e) {
			break
		}
		h.s[i] = h.s[m]
		h.s[i].ev.pos = int32(i)
		i = m
	}
	h.s[i] = e
	e.ev.pos = int32(i)
}
