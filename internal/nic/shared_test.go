package nic

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"nicwarp/internal/vtime"
)

// Contains reports whether key is recorded for obj without consuming it.
func (b *DropBuffer) Contains(obj int32, key DropKey) bool {
	return find(b.ring(obj), key) >= 0
}

func TestNewSharedWindowDefaults(t *testing.T) {
	w := NewSharedWindow()
	if w.HostTMin != vtime.Infinity {
		t.Fatal("HostTMin must start at infinity")
	}
	if w.LatestGVT != -1 {
		t.Fatal("LatestGVT must start below any valid virtual time")
	}
	if w.Dropped == nil || w.Dropped.cap != DefaultDropBufferCap {
		t.Fatal("drop buffer must exist with the default capacity")
	}
	if PaperDropBufferCap != 10 {
		t.Fatal("the paper's buffer size is 10")
	}
}

func TestDropBufferRecordTake(t *testing.T) {
	b := NewDropBuffer(4)
	b.Record(1, DropKey{ID: 100})
	b.Record(1, DropKey{ID: 200})
	b.Record(2, DropKey{ID: 100})
	if !b.Contains(1, DropKey{ID: 100}) || !b.Contains(2, DropKey{ID: 100}) {
		t.Fatal("Contains")
	}
	if b.Contains(1, DropKey{ID: 999}) {
		t.Fatal("phantom entry")
	}
	if !b.Take(1, DropKey{ID: 100}) {
		t.Fatal("Take should succeed")
	}
	if b.Contains(1, DropKey{ID: 100}) {
		t.Fatal("Take must consume the entry")
	}
	if b.Take(1, DropKey{ID: 100}) {
		t.Fatal("second Take must fail")
	}
	if b.Len(1) != 1 || b.Len(2) != 1 || b.TotalLen() != 2 {
		t.Fatalf("lengths: %d %d %d", b.Len(1), b.Len(2), b.TotalLen())
	}
}

// TestDropBufferRecordAtCapacityPanics: Room counts a ring down to zero,
// a Take frees a slot, and recording with no room — which the firmware's
// Room check makes unreachable — panics instead of evicting a record whose
// anti-message is still to come.
func TestDropBufferRecordAtCapacityPanics(t *testing.T) {
	b := NewDropBuffer(3)
	for id := uint64(0); id < 3; id++ {
		if b.Room(7) != 3-int(id) {
			t.Fatalf("room = %d before record %d", b.Room(7), id)
		}
		b.Record(7, DropKey{ID: id})
	}
	if b.Room(7) != 0 || b.Room(8) != 3 {
		t.Fatalf("room = %d (full ring), %d (untouched object)", b.Room(7), b.Room(8))
	}
	if !b.Take(7, DropKey{ID: 1}) || b.Room(7) != 1 {
		t.Fatal("a Take must free one slot")
	}
	b.Record(7, DropKey{ID: 3})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic recording into a full ring")
		}
		for _, id := range []uint64{0, 2, 3} {
			if !b.Contains(7, DropKey{ID: id}) {
				t.Fatalf("entry %d lost", id)
			}
		}
	}()
	b.Record(7, DropKey{ID: 4})
}

func TestDropBufferPerObjectIsolation(t *testing.T) {
	b := NewDropBuffer(2)
	b.Record(1, DropKey{ID: 5})
	b.Record(2, DropKey{ID: 5})
	if !b.Take(1, DropKey{ID: 5}) {
		t.Fatal("take obj1")
	}
	if !b.Contains(2, DropKey{ID: 5}) {
		t.Fatal("obj2 entry must survive obj1 take")
	}
}

func TestDropBufferZeroCapPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewDropBuffer(0)
}

// TestDropBufferConservation: every recorded ID is either still present
// or was taken — records = takes + remaining.
func TestDropBufferConservation(t *testing.T) {
	f := func(ops []uint8) bool {
		b := NewDropBuffer(3)
		id := uint64(0)
		records, takes := 0, 0
		for _, op := range ops {
			obj := int32(op % 4)
			if op%3 == 0 {
				if b.Room(obj) > 0 {
					id++
					b.Record(obj, DropKey{ID: id})
					records++
				}
			} else if b.Take(obj, DropKey{ID: uint64(op)}) {
				takes++
			}
		}
		return records == takes+b.TotalLen()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// sliceDropBuffer is the map-of-slices buffer DropBuffer replaced, kept as
// the reference for its queues: Record appends, Take deletes by copying the
// queue.
type sliceDropBuffer struct {
	byObj map[int32][]DropKey
}

func (b *sliceDropBuffer) record(obj int32, key DropKey) {
	b.byObj[obj] = append(b.byObj[obj], key)
}

func (b *sliceDropBuffer) take(obj int32, key DropKey) bool {
	q := b.byObj[obj]
	for i, v := range q {
		if v == key {
			b.byObj[obj] = append(q[:i:i], q[i+1:]...)
			return true
		}
	}
	return false
}

// TestDropBufferMatchesSliceReference: the per-object queues keep exactly
// the entries, in exactly the FIFO order, the slice buffer kept — same Take
// results, same Room — at the paper-scale capacities where the queue is
// mostly full and slides, and at the deep capacity the benchmark runs, where
// it has to grow. Like the firmware, the driver records only into Room.
func TestDropBufferMatchesSliceReference(t *testing.T) {
	for _, capPerObj := range []int{2, PaperDropBufferCap, 4096} {
		rng := rand.New(rand.NewSource(int64(capPerObj)))
		got := NewDropBuffer(capPerObj)
		want := &sliceDropBuffer{byObj: map[int32][]DropKey{}}
		next := uint64(0)
		records, takes := 0, 0
		for step := 0; step < 40000; step++ {
			obj := int32(rng.Intn(3) * 5) // sparse ids: 0, 5, 10
			q := want.byObj[obj]
			switch op := rng.Intn(10); {
			case op < 6:
				if len(q) == capPerObj {
					break
				}
				next++
				key := DropKey{ID: next % 50, Dst: obj, SendTS: vtime.VTime(next)} // ids recur, as after rollback
				got.Record(obj, key)
				want.record(obj, key)
				records++
			case len(q) > 0 && op < 9:
				// Mostly the oldest entry (drops and antis pair up FIFO),
				// sometimes one from the middle.
				key := q[0]
				if rng.Intn(4) == 0 {
					key = q[rng.Intn(len(q))]
				}
				g, w := got.Take(obj, key), want.take(obj, key)
				if g != w {
					t.Fatalf("cap %d step %d: Take = %v, reference %v", capPerObj, step, g, w)
				}
				if g {
					takes++
				}
			default:
				key := DropKey{ID: uint64(rng.Intn(50)), Dst: obj}
				g, w := got.Take(obj, key), want.take(obj, key)
				if g != w {
					t.Fatalf("cap %d step %d: Take(miss) = %v, reference %v", capPerObj, step, g, w)
				}
				if g {
					takes++
				}
			}
			q = want.byObj[obj]
			if got.Len(obj) != len(q) || got.Room(obj) != capPerObj-len(q) {
				t.Fatalf("cap %d step %d: len/room = %d/%d, reference %d/%d", capPerObj, step,
					got.Len(obj), got.Room(obj), len(q), capPerObj-len(q))
			}
			live := got.ring(obj)
			for i, key := range q {
				if live[i] != key {
					t.Fatalf("cap %d step %d: obj %d entry %d = %+v, reference %+v", capPerObj, step, obj, i, live[i], key)
				}
			}
		}
		if records != takes+got.TotalLen() {
			t.Fatalf("cap %d: records %d != takes %d + held %d", capPerObj, records, takes, got.TotalLen())
		}
	}
}

// TestDropBufferSteadyStateAllocatesNothing is the regression for the
// allocation bug of the slice buffer (Take reallocated the queue on every
// hit): once an object's queue has reached its working depth, Record,
// Contains and Take — hit and miss, on a queue full at its capacity and on
// one that has grown — allocate nothing.
func TestDropBufferSteadyStateAllocatesNothing(t *testing.T) {
	for _, capPerObj := range []int{2, 4096} {
		b := NewDropBuffer(capPerObj)
		// The queue holds the ids [lo, id) with one slot to spare at cap 2,
		// so every round fills it; ninety-nine deep at cap 4096, after the
		// queue has grown.
		lo, id := uint64(0), uint64(min(capPerObj, 100)-1)
		for i := lo; i < id; i++ {
			b.Record(3, DropKey{ID: i})
		}
		allocs := testing.AllocsPerRun(1000, func() {
			b.Record(3, DropKey{ID: id})
			if !b.Contains(3, DropKey{ID: id}) || b.Contains(3, DropKey{ID: id + 1}) {
				t.Fatal("Contains")
			}
			if b.Take(3, DropKey{ID: id + 1}) {
				t.Fatal("Take of an entry never recorded")
			}
			// The newest entry: the longest search and the longest shift.
			if !b.Take(3, DropKey{ID: id}) {
				t.Fatal("Take of the newest entry")
			}
			b.Record(3, DropKey{ID: id})
			if !b.Take(3, DropKey{ID: lo}) {
				t.Fatal("Take of the oldest entry")
			}
			lo++
			id++
		})
		if b.Len(3) != int(id-lo) || (capPerObj == 2) != (b.Room(3) == 1) {
			t.Fatalf("cap %d: holds %d entries with room for %d", capPerObj, b.Len(3), b.Room(3))
		}
		if allocs != 0 {
			t.Fatalf("cap %d: steady-state Record/Contains/Take allocate %.1f times per round, want 0", capPerObj, allocs)
		}
	}
}

// TestNodeCountsWalkIsSortedKeyOrder: the host drains CreditRefund and
// CreditSalvage by walking the tables in index order and skipping zeros;
// that must visit the same (node, count) pairs, in the same order, as
// sorting the keys of the map the tables replaced — credit messages leave
// in that order. Includes ids larger than any touched before.
func TestNodeCountsWalkIsSortedKeyOrder(t *testing.T) {
	touches := [][]int32{
		{},
		{3},
		{5, 2, 7, 2, 3},
		{0, 1023, 4, 1023, 512},
		{7, 6, 5, 4, 3, 2, 1, 0},
	}
	for _, dsts := range touches {
		var c NodeCounts
		ref := map[int32]int64{}
		for i, dst := range dsts {
			c.Add(dst, int64(i+1))
			ref[dst] += int64(i + 1)
			if c.At(dst) != ref[dst] {
				t.Fatalf("%v: At(%d) = %d, want %d", dsts, dst, c.At(dst), ref[dst])
			}
		}
		keys := make([]int32, 0, len(ref))
		for dst := range ref {
			keys = append(keys, dst)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		var walked []int32
		var sum int64
		for dst, k := range c {
			if k != 0 {
				walked = append(walked, int32(dst))
				if k != ref[int32(dst)] {
					t.Fatalf("%v: node %d counts %d, want %d", dsts, dst, k, ref[int32(dst)])
				}
				sum += k
			}
		}
		if !slices.Equal(walked, keys) || sum != c.Sum() || c.At(2000) != 0 {
			t.Fatalf("%v: walk visits %v (sum %d of %d), sorted keys are %v", dsts, walked, sum, c.Sum(), keys)
		}
	}
}
