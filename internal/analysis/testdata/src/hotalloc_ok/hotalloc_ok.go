// Package hotalloc_ok exercises the hotalloc rule's non-flagging half:
// genuinely allocation-free hot paths, sanctioned amortized allocations,
// and panic-terminated cold blocks.
package hotalloc_ok

type event struct {
	id  uint64
	ts  int64
	pos int32
}

type ring struct {
	buf  []event
	head int
	tail int
}

// step is a hot root: index arithmetic, struct copies and calls to other
// allocation-free functions only.
//
//nicwarp:hotpath per-event scheduling step, measured by the bench gate
func step(r *ring, e event) int64 {
	r.buf[r.tail] = e
	r.tail = (r.tail + 1) % len(r.buf)
	return drain(r)
}

// drain is dominated by step and is itself allocation-free.
func drain(r *ring) int64 {
	var sum int64
	for r.head != r.tail {
		sum += r.buf[r.head].ts
		r.head = (r.head + 1) % len(r.buf)
	}
	return sum
}

// refill is dominated by deliver; the append is an acknowledged amortized
// allocation, which also cuts MayAlloc propagation to refill's callers.
func refill(r *ring, n int) {
	for i := 0; i < n; i++ {
		//nicwarp:alloc pool refill is amortized over the events it feeds
		r.buf = append(r.buf, event{})
	}
}

//nicwarp:hotpath delivery fast path
func deliver(r *ring, e event) {
	if e.pos < 0 {
		// Cold path: the formatting allocation happens once, right before
		// the crash.
		msg := "bad slot: " + itoa(int(e.pos))
		panic(msg)
	}
	r.buf[e.pos] = e
	refill(r, 1)
}

// itoa is only reached from the panic block, but must still be summarized;
// it allocates nothing (fixed buffer, value return).
func itoa(v int) string {
	var buf [20]byte
	i := len(buf)
	neg := v < 0
	if neg {
		v = -v
	}
	for {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
		if v == 0 {
			break
		}
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// cold is not hot and not dominated by a hot root: it may allocate freely.
func cold() []event {
	out := make([]event, 0, 16)
	out = append(out, event{id: 1})
	return out
}

// queue is a capability interface. A call through peek would be a dynamic
// call, assumed to allocate — but peek is declared hot on the interface, so
// the package's implementation (ringQueue.peek) is held to the contract
// and callers are judged by its facts instead.
type queue interface {
	// peek returns the oldest event's timestamp.
	//nicwarp:hotpath read on every scheduling step
	peek() int64
}

type ringQueue struct{ r *ring }

func (q ringQueue) peek() int64 { return q.r.buf[q.r.head].ts }

//nicwarp:hotpath scheduling step over the capability interface
func next(q queue) int64 {
	return q.peek()
}

// A method expression is a static call, judged by what the method does.
//
//nicwarp:hotpath scheduling step through a method expression
func peekDirect(q ringQueue) int64 {
	return ringQueue.peek(q)
}
