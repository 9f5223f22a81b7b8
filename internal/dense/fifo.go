package dense

// FIFO is a first-in-first-out queue in one slice: entries are appended at
// the tail and consumed from a moving head, and the consumed prefix is
// compacted away in place just before the slice would otherwise grow, so a
// queue whose depth stays bounded stops allocating once it has reached that
// depth. Every vacated slot is zeroed, so the queue never pins what has
// left it. It is every FIFO-shaped queue in the model: the "the server is
// FIFO, so the completion belongs to the oldest entry" pairings, the host
// pipeline queues, the Time Warp history, the NIC send and receive queues,
// the drop rings, the MPICH wait queues and the cancel windows.
//
// Entries may also leave from the middle: filter Live() into its own prefix,
// then DropTail the rest.
//
// The zero value is an empty queue.
type FIFO[T any] struct {
	q    []T
	head int
}

// firstCap is the first push's allocation, in entries: most queues here
// stay a few entries deep, and growing 1→2→4→8 would cost four.
const firstCap = 8

// On starts the empty queue f on buf's backing array: it holds cap(buf)
// entries before it allocates. Many queues can share one array, each on its
// own three-index sub-slice (buf[i:i:j]): a queue never reaches past
// cap(buf), and one that outgrows it moves to an array of its own and zeroes
// the slots it leaves.
func (f *FIFO[T]) On(buf []T) { f.q, f.head = buf[:0], 0 }

// Queue is a FIFO that starts on firstCap entries it carries, so a queue
// that never holds more allocates nothing: the queues that live inside a
// node, a NIC, a resource or an object's runtime. A Queue must not be
// copied once pushed to. The zero value is an empty queue.
type Queue[T any] struct {
	FIFO[T]
	first [firstCap]T
}

// PushSlot is FIFO.PushSlot, starting an unused queue on its own entries.
//
//nicwarp:hotpath one push per FIFO-server job and per packet crossing the host pipeline
func (q *Queue[T]) PushSlot() *T {
	if cap(q.q) == 0 {
		q.On(q.first[:])
	}
	return q.FIFO.PushSlot()
}

// Push appends v.
func (q *Queue[T]) Push(v T) { *q.PushSlot() = v }

// Len returns the number of queued entries.
func (f *FIFO[T]) Len() int { return len(f.q) - f.head }

// Push appends v.
func (f *FIFO[T]) Push(v T) { *f.PushSlot() = v }

// PushSlot appends a zero entry and returns it for the caller to fill in
// place — the way to enqueue an entry too wide to pass by value cheaply.
// The pointer is valid until the next push.
//
//nicwarp:hotpath one push per FIFO-server job and per packet crossing the host pipeline
func (f *FIFO[T]) PushSlot() *T {
	var zero T
	if len(f.q) == cap(f.q) {
		if f.head > 0 {
			n := copy(f.q, f.q[f.head:])
			clear(f.q[n:])
			f.q = f.q[:n]
			f.head = 0
		} else if cap(f.q) == 0 {
			f.q = make([]T, 0, firstCap) //nicwarp:alloc first push, once per queue
		} else {
			// Full: move to a larger array and zero the slots left behind,
			// which may be part of an array shared through On.
			old := f.q
			f.q = append(old, zero)[:len(old)] //nicwarp:alloc queue growth to a new high-water depth, amortized: the consumed prefix is reused first
			clear(old)
		}
	}
	f.q = f.q[:len(f.q)+1]
	f.q[len(f.q)-1] = zero
	return &f.q[len(f.q)-1]
}

// Front returns the oldest entry in place; it panics on an empty queue. The
// pointer is valid until the next push or pop.
func (f *FIFO[T]) Front() *T { return &f.q[f.head] }

// Drop removes the oldest entry without copying it out.
//
//nicwarp:hotpath one pop per FIFO-server job and per packet crossing the host pipeline
func (f *FIFO[T]) Drop() {
	var zero T
	f.q[f.head] = zero
	f.head++
	if f.head == len(f.q) {
		f.q = f.q[:0]
		f.head = 0
	}
}

// Pop removes and returns the oldest entry.
func (f *FIFO[T]) Pop() T {
	v := f.q[f.head]
	f.Drop()
	return v
}

// Live returns the queued entries, oldest first, as a view into the queue:
// valid until the next push or pop.
func (f *FIFO[T]) Live() []T { return f.q[f.head:] }

// DropTail removes the newest n entries — the un-push a queue needs when
// its owner rolls the producing work back.
func (f *FIFO[T]) DropTail(n int) {
	keep := len(f.q) - n
	clear(f.q[keep:])
	f.q = f.q[:keep]
	if f.head == keep {
		f.q = f.q[:0]
		f.head = 0
	}
}
