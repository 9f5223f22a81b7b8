package dense

// EpochWindow counts by epoch (a GVT colour stamp or wave number) over a
// sliding base: epochs at or above the base each have their own counter in
// a dense slice, every epoch below it shares one. It is the bookkeeping
// shape all of the Mattern colour accounting has — stamps only matter
// individually while some live computation can still tell them apart —
// stored the way a NIC would store it: directly indexed, no hashing, and
// walked in ascending epoch order.
//
// The zero value is an empty window based at epoch zero.
type EpochWindow struct {
	base uint32
	old  int64   // every epoch below base
	n    []int64 // n[i] counts epoch base+i
}

// Base returns the lowest epoch still counted individually.
func (w *EpochWindow) Base() uint32 { return w.base }

// Add adds delta to epoch's counter; the window grows to reach epochs
// ahead of everything seen so far.
//
//nicwarp:hotpath per-packet colour accounting on every send and receive
func (w *EpochWindow) Add(epoch uint32, delta int64) {
	if epoch < w.base {
		w.old += delta
		return
	}
	i := int(epoch - w.base)
	for i >= len(w.n) {
		w.n = append(w.n, 0) //nicwarp:alloc window growth, amortized: capacity survives Fold
	}
	w.n[i] += delta
}

// Folded returns the total over every epoch below the base.
func (w *EpochWindow) Folded() int64 { return w.old }

// Below returns the total over every epoch strictly below epoch.
func (w *EpochWindow) Below(epoch uint32) int64 {
	sum := w.old
	if epoch > w.base {
		for _, c := range w.n[:min(int(epoch-w.base), len(w.n))] {
			sum += c
		}
	}
	return sum
}

// Fold advances the base to epoch: counters below it merge into the shared
// one and the window slides. A base at or below the current one is a no-op.
func (w *EpochWindow) Fold(epoch uint32) {
	if epoch <= w.base {
		return
	}
	k := min(int(epoch-w.base), len(w.n))
	for _, c := range w.n[:k] {
		w.old += c
	}
	w.n = w.n[:copy(w.n, w.n[k:])]
	w.base = epoch
}

// MoveTo transfers every count into dst, epoch by epoch, leaves w empty and
// advances w's base to dst's. Counts w had already folded can only land in
// dst's folded bucket, which is exact as long as w's base never runs ahead
// of dst's — true when MoveTo is the only thing that moves it.
func (w *EpochWindow) MoveTo(dst *EpochWindow) {
	if w.base > dst.base {
		panic("dense: EpochWindow.MoveTo into a window based below the source")
	}
	dst.old += w.old
	w.old = 0
	for i, c := range w.n {
		if c != 0 {
			dst.Add(w.base+uint32(i), c)
			w.n[i] = 0
		}
	}
	w.Fold(dst.base)
}
