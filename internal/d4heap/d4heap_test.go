package d4heap

import (
	"math"
	"sort"
	"strconv"
	"testing"
	"testing/quick"
)

// refHeap is the reference model: the branchy 4-ary heap the engine ran on
// before this one (des.timerHeap, verbatim but for the key's field names and
// the pos index moving inside), with the partial-group path, the two-field
// compare and no sentinels. The production heap must agree with it on every
// pop and every pos entry.
type refHeap struct {
	k    []Key
	ei   []uint32
	pos  []int32
	hole int
}

func refLess(a, b *Key) bool {
	if a.Hi != b.Hi {
		return a.Hi < b.Hi
	}
	return a.Lo < b.Lo
}

func (h *refHeap) len() int { return len(h.k) - h.hole }

func (h *refHeap) push(ei uint32, k Key) {
	for int(ei) >= len(h.pos) {
		h.pos = append(h.pos, -1)
	}
	if h.hole != 0 {
		h.hole = 0
		h.down(0, k, ei)
		return
	}
	h.k = append(h.k, Key{})
	h.ei = append(h.ei, 0)
	h.up(len(h.k)-1, k, ei)
}

func (h *refHeap) take() uint32 {
	min := h.ei[0]
	h.pos[min] = -1
	h.hole = 1
	return min
}

func (h *refHeap) settle() {
	if h.hole == 0 {
		return
	}
	h.hole = 0
	n := len(h.k) - 1
	lastK, lastE := h.k[n], h.ei[n]
	h.k = h.k[:n]
	h.ei = h.ei[:n]
	if n > 0 {
		h.down(0, lastK, lastE)
	}
}

func (h *refHeap) remove(i int) {
	ev := h.ei[i]
	n := len(h.k) - 1
	lastK, lastE := h.k[n], h.ei[n]
	h.k = h.k[:n]
	h.ei = h.ei[:n]
	if i < n {
		h.place(i, lastK, lastE)
	}
	h.pos[ev] = -1
}

// fix is the one operation timerHeap lacked: the generic heap's Fix, on
// this layout.
func (h *refHeap) fix(ei uint32, k Key) { h.place(int(h.pos[ei]), k, ei) }

func (h *refHeap) place(i int, k Key, ei uint32) {
	if i > 0 && refLess(&k, &h.k[(i-1)/4]) {
		h.up(i, k, ei)
	} else {
		h.down(i, k, ei)
	}
}

func (h *refHeap) up(i int, k Key, ei uint32) {
	for i > 0 {
		p := (i - 1) / 4
		if !refLess(&k, &h.k[p]) {
			break
		}
		h.k[i] = h.k[p]
		h.ei[i] = h.ei[p]
		h.pos[h.ei[i]] = int32(i)
		i = p
	}
	h.k[i] = k
	h.ei[i] = ei
	h.pos[ei] = int32(i)
}

func (h *refHeap) down(i int, k Key, ei uint32) {
	n := len(h.k)
	for {
		c := i*4 + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if refLess(&h.k[j], &h.k[m]) {
				m = j
			}
		}
		if !refLess(&h.k[m], &k) {
			break
		}
		h.k[i] = h.k[m]
		h.ei[i] = h.ei[m]
		h.pos[h.ei[i]] = int32(i)
		i = m
	}
	h.k[i] = k
	h.ei[i] = ei
	h.pos[ei] = int32(i)
}

// pair drives a Heap and the reference through the same operations.
type pair struct {
	t    testing.TB
	h    Heap
	ref  refHeap
	used map[Key]bool // keys on the heap: the ordering contract wants them distinct
	key  []Key        // key of each id, while on the heap
	free []uint32     // ids off the heap
}

func newPair(t testing.TB) *pair { return &pair{t: t, used: map[Key]bool{}} }

// check asserts the layout invariants and agreement with the reference:
// same length, same root, same slot for every id, every parent no greater
// than its children, sentinels exactly in the padding.
func (p *pair) check(op string) {
	p.t.Helper()
	h, ref := &p.h, &p.ref
	if h.Len() != ref.len() || h.hole != ref.hole {
		p.t.Fatalf("after %s: Len %d hole %d, reference %d hole %d", op, h.Len(), h.hole, ref.len(), ref.hole)
	}
	if l := len(h.k); l != len(h.id) || l < h.n || (l != 0 && l%4 != 1) {
		p.t.Fatalf("after %s: %d keys, %d ids, %d occupied", op, l, len(h.id), h.n)
	}
	for i, k := range h.k {
		if (k == sentinel) != (i >= h.n) && !(i == 0 && h.hole != 0) {
			p.t.Fatalf("after %s: slot %d of %d occupied holds %v", op, i, h.n, k)
		}
		if i >= h.n || (i == 0 && h.hole != 0) {
			continue
		}
		if h.id[i] != ref.ei[i] || k != ref.k[i] {
			p.t.Fatalf("after %s: slot %d holds (%v, %d), reference (%v, %d)", op, i, k, h.id[i], ref.k[i], ref.ei[i])
		}
		if parent := (i - 1) / 4; i > 0 && !(parent == 0 && h.hole != 0) && less(k, h.k[parent]) != 0 {
			p.t.Fatalf("after %s: slot %d (%v) sorts before its parent (%v)", op, i, k, h.k[parent])
		}
	}
	for id := range h.pos {
		if h.pos[id] != ref.pos[id] {
			p.t.Fatalf("after %s: pos[%d] = %d, reference %d", op, id, h.pos[id], ref.pos[id])
		}
		if h.Has(uint32(id)) != (h.pos[id] >= 0) {
			p.t.Fatalf("after %s: Has(%d) disagrees with pos %d", op, id, h.pos[id])
		}
	}
}

// push inserts k under a recycled or fresh id; a key already on the heap or
// equal to the sentinel is skipped.
func (p *pair) push(k Key) {
	if p.used[k] || k == sentinel {
		return
	}
	id := uint32(len(p.key))
	if n := len(p.free); n > 0 {
		id, p.free = p.free[n-1], p.free[:n-1]
	} else {
		p.key = append(p.key, Key{})
	}
	p.used[k], p.key[id] = true, k
	p.h.Push(id, k)
	p.ref.push(id, k)
	p.check("push")
}

// take vacates both roots and requires the same id, which must carry the
// least key on the heap.
func (p *pair) take() {
	if p.h.Len() == 0 {
		return
	}
	p.settle()
	wantK := p.h.MinKey()
	for k := range p.used {
		if refLess(&k, &wantK) {
			p.t.Fatalf("root %v is not the minimum: %v is on the heap", wantK, k)
		}
	}
	a, b := p.h.Take(), p.ref.take()
	if a != b || p.key[a] != wantK || wantK == sentinel {
		p.t.Fatalf("take: id %d key %v, reference id %d key %v", a, wantK, b, p.key[b])
	}
	p.gone(a)
	p.check("take")
}

func (p *pair) gone(id uint32) {
	delete(p.used, p.key[id])
	p.free = append(p.free, id)
}

func (p *pair) settle() {
	p.h.Settle()
	p.ref.settle()
	p.check("settle")
}

// live returns the r-th id on the heap (root must not be vacant).
func (p *pair) live(r uint64) uint32 { return p.h.id[r%uint64(p.h.n)] }

func (p *pair) remove(r uint64) {
	p.settle()
	if p.h.Len() == 0 {
		return
	}
	id := p.live(r)
	p.ref.remove(int(p.ref.pos[id]))
	p.h.Remove(id)
	p.gone(id)
	p.check("remove")
}

func (p *pair) fix(r uint64, k Key) {
	p.settle()
	if p.h.Len() == 0 || p.used[k] || k == sentinel {
		return
	}
	id := p.live(r)
	delete(p.used, p.key[id])
	p.used[k], p.key[id] = true, k
	p.h.Fix(id, k)
	p.ref.fix(id, k)
	p.check("fix")
}

// drain pops everything through take/settle and requires sorted order.
func (p *pair) drain() {
	var prev Key
	for first := true; p.h.Len() > 0; first = false {
		p.settle()
		k := p.h.MinKey()
		if !first && !refLess(&prev, &k) {
			p.t.Fatalf("drain: %v popped after %v", k, prev)
		}
		prev = k
		p.take()
	}
	p.settle()
	if p.h.n != 0 || len(p.used) != 0 {
		p.t.Fatalf("drained heap still holds %d entries (%d keys tracked)", p.h.n, len(p.used))
	}
}

// edgeKey draws keys that collide in Hi and sit on the boundaries of the
// unsigned order: zero, MaxInt64 (the largest engine time and an idle
// object's flipped timestamp minus the sign bit) and the sentinel's
// neighbourhood.
func edgeKey(a, b uint64) Key {
	his := [...]uint64{0, 1, 7, math.MaxInt64 - 1, math.MaxInt64, 1 << 63, math.MaxUint64 - 1, math.MaxUint64}
	los := [...]uint64{0, 1, 2, 3, math.MaxInt64, 1 << 63, math.MaxUint64 - 1, math.MaxUint64}
	k := Key{his[a%uint64(len(his))], b >> 3}
	if b&4 != 0 {
		k.Lo = los[(b>>3)%uint64(len(los))]
	}
	return k
}

// run interprets bytes as an operation stream, three bytes per step. Every
// step is checked in O(n), so the stream is cut at a length that reaches
// five levels and keeps a fuzz worker responsive.
func (p *pair) run(data []byte) {
	if max := 3 * 600; len(data) > max {
		data = data[:max]
	}
	for ; len(data) >= 3; data = data[3:] {
		a, b := uint64(data[1]), uint64(data[2])
		switch data[0] % 8 {
		case 0, 1, 2:
			p.push(edgeKey(a, b))
		case 3:
			p.take()
		case 4: // take then refill the vacated root
			p.take()
			p.push(edgeKey(a, b))
		case 5:
			p.settle()
		case 6:
			p.remove(a<<8 | b)
		case 7:
			p.fix(a, edgeKey(b, a*b))
		}
	}
	p.drain()
}

func FuzzHeapMatchesReference(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 8, 3, 0, 0, 4, 7, 255, 6, 0, 0, 7, 1, 2, 5, 0, 0})
	f.Add([]byte{0, 7, 252, 0, 7, 244, 0, 6, 255, 4, 7, 236, 3, 0, 0, 3, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) { newPair(t).run(data) })
}

func TestHeapMatchesReference(t *testing.T) {
	f := func(data []byte) bool {
		newPair(t).run(data)
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPushPopSortedOrder(t *testing.T) {
	var h Heap
	keys := []uint64{9, 3, 7, 3, 1, 12, 0, 5, 5, 5, 2}
	for i, k := range keys {
		h.Push(uint32(i), Key{k, uint64(i)})
	}
	if h.Len() != len(keys) {
		t.Fatalf("Len = %d, want %d", h.Len(), len(keys))
	}
	sorted := append([]uint64(nil), keys...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for i, want := range sorted {
		if h.MinKey().Hi != want {
			t.Fatalf("MinKey before pop %d = %d, want %d", i, h.MinKey().Hi, want)
		}
		id := h.Take()
		h.Settle()
		if keys[id] != want {
			t.Fatalf("pop %d = id %d key %d, want %d", i, id, keys[id], want)
		}
		if h.Has(id) {
			t.Fatalf("popped id %d still on the heap", id)
		}
	}
}

// TestPositionIndexAccurate checks the invariant the O(log n) cancellation
// path depends on: after any operation, every id's pos equals its slot.
func TestPositionIndexAccurate(t *testing.T) {
	p := newPair(t)
	rng := uint64(42)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	for step := 0; step < 5000; step++ {
		switch r := next() % 10; {
		case r < 5 || p.h.Len() == 0:
			p.push(Key{next() % 64, uint64(step)})
		case r < 7:
			p.take()
		case r < 9:
			p.remove(next())
		default:
			p.fix(next(), Key{next() % 64, uint64(step)})
		}
		for i := p.h.hole; i < p.h.n; i++ {
			if got := p.h.pos[p.h.id[i]]; int(got) != i {
				t.Fatalf("step %d: slot %d holds id %d whose pos is %d", step, i, p.h.id[i], got)
			}
		}
	}
}

// TestAgainstContainerHeap keeps its name from the generic heap it used to
// test: random push/pop/remove interleavings must pop in the order a sorted
// slice — the simplest correct priority queue — gives.
func TestAgainstContainerHeap(t *testing.T) {
	f := func(ops []uint16, seed uint64) bool {
		var h Heap
		var ref []Key // sorted
		ids := map[Key]uint32{}
		rng := seed | 1
		next := func() uint64 {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			return rng
		}
		for seq, op := range ops {
			switch {
			case op%3 == 0 || h.Len() == 0:
				k := Key{uint64(op) / 3 % 97, uint64(seq)}
				i := sort.Search(len(ref), func(i int) bool { return refLess(&k, &ref[i]) })
				ref = append(ref, Key{})
				copy(ref[i+1:], ref[i:])
				ref[i] = k
				ids[k] = uint32(seq)
				h.Push(uint32(seq), k)
			case op%3 == 1:
				k := h.MinKey()
				id := h.Take()
				h.Settle()
				if k != ref[0] || id != ids[k] {
					t.Logf("pop diverged: (%v, %d) vs sorted (%v, %d)", k, id, ref[0], ids[ref[0]])
					return false
				}
				ref = ref[1:]
			default:
				i := int(next() % uint64(len(ref)))
				h.Remove(ids[ref[i]])
				ref = append(ref[:i], ref[i+1:]...)
			}
		}
		for ; h.Len() > 0; ref = ref[1:] {
			k := h.MinKey()
			if id := h.Take(); k != ref[0] || id != ids[k] {
				return false
			}
			h.Settle()
		}
		return len(ref) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRemoveLastSlot(t *testing.T) {
	var h Heap
	h.Push(0, Key{1, 0})
	h.Push(1, Key{2, 1})
	h.Remove(1) // removing the final slot must not sift
	if h.Len() != 1 || h.Min() != 0 {
		t.Fatalf("unexpected heap after removing last slot: len=%d", h.Len())
	}
	if h.Has(1) {
		t.Fatal("removed id still indexed")
	}
	if h.k[1] != sentinel {
		t.Fatalf("vacated slot holds %v, want the sentinel", h.k[1])
	}
}

func TestSentinelKeyPanics(t *testing.T) {
	for name, op := range map[string]func(h *Heap){
		"Push": func(h *Heap) { h.Push(1, sentinel) },
		"Fix":  func(h *Heap) { h.Fix(0, sentinel) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s of the sentinel key did not panic", name)
				}
			}()
			var h Heap
			h.Push(0, Key{1, 1})
			op(&h)
		}()
	}
}

// hold is the benchmark loop both heaps run: take the root, refill it a
// random increment later — one engine event.
const holdSpread = 1 << 12

func benchKeys(depth int) []Key {
	ks := make([]Key, depth)
	rng := uint64(7)
	for i := range ks {
		rng = rng*6364136223846793005 + 1442695040888963407
		ks[i] = Key{rng >> 52, uint64(i)}
	}
	return ks
}

func BenchmarkHold(b *testing.B) {
	for _, depth := range []int{16, 400} {
		b.Run("heap/"+strconv.Itoa(depth), func(b *testing.B) {
			var h Heap
			for i, k := range benchKeys(depth) {
				h.Push(uint32(i), k)
			}
			rng := uint64(1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := h.MinKey()
				id := h.Take()
				rng = rng*6364136223846793005 + 1442695040888963407
				h.Push(id, Key{k.Hi + rng>>52%holdSpread, uint64(depth + i)})
			}
		})
		b.Run("ref/"+strconv.Itoa(depth), func(b *testing.B) {
			var h refHeap
			for i, k := range benchKeys(depth) {
				h.push(uint32(i), k)
			}
			rng := uint64(1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := h.k[0]
				id := h.take()
				rng = rng*6364136223846793005 + 1442695040888963407
				h.push(id, Key{k.Hi + rng>>52%holdSpread, uint64(depth + i)})
			}
		})
	}
}
