package dense

import (
	"math/rand"
	"testing"
)

func TestGrowAndAt(t *testing.T) {
	var s []int
	if At(s, 3) != 0 || At(s, -1) != 0 {
		t.Fatal("At outside the table must read zero")
	}
	s = Grow(s, 3, 7)
	if len(s) != 4 || s[0] != 7 || s[3] != 7 {
		t.Fatalf("Grow(nil, 3, 7) = %v, want four sevens", s)
	}
	s[1] = 1
	if g := Grow(s, 2, 9); len(g) != 4 || g[1] != 1 {
		t.Fatalf("Grow within the table must not touch it, got %v", g)
	}
	if At(s, 1) != 1 || At(s, 4) != 0 {
		t.Fatal("At inside/past the table")
	}
}

// TestGrowAllocatesOncePerGrowth: reaching index 255 from an empty table is
// one allocation, where appending a slot at a time doubled its way there in
// nine; every slot it opens holds fill, and a later growth past the new
// capacity keeps what the table held.
func TestGrowAllocatesOncePerGrowth(t *testing.T) {
	if allocs := testing.AllocsPerRun(100, func() { _ = Grow([]int64(nil), 255, -1) }); allocs != 1 {
		t.Fatalf("Grow(nil, 255) made %v allocations, want 1", allocs)
	}
	s := Grow([]int64(nil), 255, -1)
	if len(s) != 256 || cap(s) < 256 {
		t.Fatalf("Grow(nil, 255): len %d cap %d, want 256 slots", len(s), cap(s))
	}
	for i := range s {
		if s[i] != -1 {
			t.Fatalf("slot %d = %d, want the fill -1", i, s[i])
		}
		s[i] = int64(i)
	}
	s = Grow(s, 300, -2)
	if len(s) != 301 || cap(s) < 512 {
		t.Fatalf("Grow to 300: len %d cap %d, want 301 slots in at least 512", len(s), cap(s))
	}
	for i := range s {
		want := int64(i)
		if i > 255 {
			want = -2 // a slot this growth opened
		}
		if s[i] != want {
			t.Fatalf("slot %d = %d after growth, want %d", i, s[i], want)
		}
	}
	// Within the capacity a growth opens slots without allocating.
	if allocs := testing.AllocsPerRun(100, func() { _ = Grow(s[:301:512], 511, -3) }); allocs != 0 {
		t.Fatalf("Grow within capacity made %v allocations, want 0", allocs)
	}
}

// mapWindow is the representation EpochWindow replaced — a folded bucket
// plus a hash map by epoch — and the reference it is tested against.
type mapWindow struct {
	base    uint32
	old     int64
	byEpoch map[uint32]int64
}

func (w *mapWindow) add(epoch uint32, n int64) {
	if epoch < w.base {
		w.old += n
	} else {
		w.byEpoch[epoch] += n
	}
}

func (w *mapWindow) below(epoch uint32) int64 {
	sum := w.old
	for e, n := range w.byEpoch {
		if e < epoch {
			sum += n
		}
	}
	return sum
}

func (w *mapWindow) fold(epoch uint32) {
	if epoch <= w.base {
		return
	}
	w.base = epoch
	for e, n := range w.byEpoch {
		if e < epoch {
			w.old += n
			delete(w.byEpoch, e)
		}
	}
}

// TestEpochWindowMatchesMapReference drives a window and the map model
// through seeded random schedules: adds below, inside and ahead of the
// window, folds forward, backward and past everything counted. A second
// window feeds it the way the shared window's DroppedWhite feeds a GVT
// ledger — filled by adds, emptied by MoveTo and re-based only by it — and
// is modelled by a plain map of true stamps: whatever the feeder folded on
// the way must land exactly where the unfolded stamps would have.
func TestEpochWindowMatchesMapReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var got, feeder EpochWindow
		want := mapWindow{byEpoch: map[uint32]int64{}}
		fed := map[uint32]int64{}
		around := func(spread int) uint32 { // an epoch near the base, either side
			return want.base + uint32(rng.Intn(spread)) - min(want.base, 3)
		}
		for step := 0; step < 3000; step++ {
			switch op := rng.Intn(10); {
			case op < 4:
				epoch, n := around(12), int64(1+rng.Intn(4))
				got.Add(epoch, n)
				want.add(epoch, n)
			case op < 6:
				epoch := around(8)
				got.Fold(epoch)
				want.fold(epoch)
			case op < 9:
				epoch, n := around(12), int64(1+rng.Intn(4))
				feeder.Add(epoch, n)
				fed[epoch] += n
			default:
				feeder.MoveTo(&got)
				for e, n := range fed {
					want.add(e, n)
					delete(fed, e)
				}
				if feeder.Base() != got.Base() || feeder.Below(^uint32(0)) != 0 {
					t.Fatalf("seed %d step %d: drained feeder holds %d, based at %d not %d",
						seed, step, feeder.Below(^uint32(0)), feeder.Base(), got.Base())
				}
			}
			if got.Base() != want.base || got.Folded() != want.old {
				t.Fatalf("seed %d step %d: base/folded = %d/%d, reference %d/%d",
					seed, step, got.Base(), got.Folded(), want.base, want.old)
			}
			for _, probe := range []uint32{0, want.base, around(20), ^uint32(0)} {
				if g, w := got.Below(probe), want.below(probe); g != w {
					t.Fatalf("seed %d step %d: Below(%d) = %d, reference %d", seed, step, probe, g, w)
				}
			}
		}
	}
}

func TestEpochWindowMoveToRejectsLaggingSink(t *testing.T) {
	var src, dst EpochWindow
	src.Fold(3)
	defer func() {
		if recover() == nil {
			t.Fatal("MoveTo into a window based below the source must panic: folded counts would be misfiled")
		}
	}()
	src.MoveTo(&dst)
}

func TestEpochWindowSteadyStateAllocatesNothing(t *testing.T) {
	var w EpochWindow
	for e := uint32(0); e < 64; e++ {
		w.Add(e, 1)
	}
	base := uint32(0)
	allocs := testing.AllocsPerRun(1000, func() {
		base++
		w.Fold(base)
		w.Add(base+63, 1)
		w.Add(base-1, 1)
		_ = w.Below(base + 32)
	})
	if allocs != 0 {
		t.Fatalf("sliding a full window allocates %.1f times per step, want 0", allocs)
	}
}

// TestTakeRefillsBySlab: an empty free list is refilled slab objects at a
// time with one allocation, every object handed out is distinct, and an
// object put back is the next one taken.
func TestTakeRefillsBySlab(t *testing.T) {
	const slab = 8
	var free []*[4]uint64
	seen := map[*[4]uint64]bool{}
	for i := 0; i < 3*slab; i++ {
		p := Take(&free, slab)
		if seen[p] {
			t.Fatalf("take %d handed out %p twice", i, p)
		}
		seen[p] = true
		if want := (slab - 1 - i%slab); len(free) != want {
			t.Fatalf("take %d left %d free, want %d", i, len(free), want)
		}
	}
	back := Take(&free, slab)
	free = append(free, back)
	if allocs := testing.AllocsPerRun(100, func() { free = append(free, Take(&free, slab)) }); allocs != 0 {
		t.Fatalf("%v allocations per take from a stocked list, want 0", allocs)
	}
	if got := Take(&free, slab); got != back {
		t.Fatalf("took %p, want the object just put back (%p)", got, back)
	}
	var misses []*int
	if allocs := testing.AllocsPerRun(10, func() { misses = misses[:0]; Take(&misses, 1) }); allocs != 1 {
		t.Fatalf("%v allocations per miss at slab 1, want 1", allocs)
	}
}
