package timewarp

import (
	"math"
	"testing"
	"testing/quick"
)

// runPoolVariant executes one adversarial harness run with pooling on or
// off and returns everything observable: the committed-event total, the
// global digest, per-object digests and committed counts, and every kernel's
// full stats block.
func runPoolVariant(t *testing.T, nObj, nLP, budget int, seed uint64, disablePool bool) (int, uint64, map[ObjectID]uint64, map[ObjectID]int, []Stats) {
	t.Helper()
	assign := func(id ObjectID) int { return int(id) % nLP }
	h := newHarnessPool(nLP, buildObjs(nObj, budget, seed), assign, seed*31+7, disablePool)
	committed := h.run(t)
	objDigests := make(map[ObjectID]uint64)
	objCounts := make(map[ObjectID]int)
	var st []Stats
	for _, k := range h.kernels {
		for id, n := range k.ProcessedCounts() {
			objCounts[id] = n
			objDigests[id] = k.ObjectDigest(id)
		}
		st = append(st, k.Stats)
	}
	return committed, h.digest(), objDigests, objCounts, st
}

// TestPoolingIsObservationallyInvisible is the property test required by the
// pooling work: for random seeds, a run with
// event pooling enabled is indistinguishable — digests, per-object state,
// per-object committed counts, and every stats counter — from a run where
// every event is freshly allocated. Any stale-field leak, double release, or
// aliasing bug in the pool shows up as a divergence here, because the
// adversarial harness drives heavy rollback, annihilation and zombie
// traffic through exactly the paths with release points.
func TestPoolingIsObservationallyInvisible(t *testing.T) {
	property := func(rawSeed uint16) bool {
		// Same seed range the oracle-equivalence tests prove convergent;
		// arbitrary seeds can rollback-thrash past the harness step bound.
		seed := uint64(rawSeed)%8 + 1
		c1, d1, od1, oc1, st1 := runPoolVariant(t, 6, 3, 40, seed, false)
		c2, d2, od2, oc2, st2 := runPoolVariant(t, 6, 3, 40, seed, true)
		if c1 != c2 || d1 != d2 {
			t.Logf("seed %d: committed %d/%d digest %x/%x", seed, c1, c2, d1, d2)
			return false
		}
		for id, dg := range od1 {
			if od2[id] != dg || oc1[id] != oc2[id] {
				t.Logf("seed %d: object %d digest %x/%x count %d/%d",
					seed, id, dg, od2[id], oc1[id], oc2[id])
				return false
			}
		}
		for i := range st1 {
			if st1[i] != st2[i] {
				t.Logf("seed %d: kernel %d stats diverge:\npooled:   %+v\ndisabled: %+v",
					seed, i, st1[i], st2[i])
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 10}
	if testing.Short() {
		cfg.MaxCount = 3
	}
	if err := quick.Check(property, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestPoolingUnderRollbackPressure pins one deliberately nasty configuration
// (more objects than LPs, long budget) and additionally
// asserts the run actually recycled events and provoked rollbacks — a pool
// equivalence test that never exercises the pool proves nothing.
func TestPoolingUnderRollbackPressure(t *testing.T) {
	seed := uint64(7)
	assign := func(id ObjectID) int { return int(id) % 3 }
	h := newHarnessPool(3, buildObjs(9, 80, seed), assign, seed*31+7, false)
	h.run(t)
	var rollbacks, annihilations int64
	pooled := 0
	for _, k := range h.kernels {
		rollbacks += k.Stats.Rollbacks.Value()
		annihilations += k.Stats.Annihilations.Value()
		pooled += len(k.pool.free)
	}
	if rollbacks == 0 {
		t.Fatal("no rollbacks; the pressure test exerts no pressure")
	}
	if annihilations == 0 {
		t.Fatal("no annihilations; release points at annihilation untested")
	}
	if pooled == 0 {
		t.Fatal("free lists empty after a run with fossil collection; events are not being recycled")
	}

	h2 := newHarnessPool(3, buildObjs(9, 80, seed), assign, seed*31+7, true)
	h2.run(t)
	if h.digest() != h2.digest() {
		t.Fatalf("digest diverges under rollback pressure: pooled %x, disabled %x", h.digest(), h2.digest())
	}
}

// TestEventPoolSlabsGrowWithThePool: a pool warming up to N live events
// allocates O(log N) slabs, not N/eventSlab: past eight minimum slabs each
// miss allocates an eighth of what the pool has made. What it has made and
// not handed out stays within an eighth of the pool plus one slab.
func TestEventPoolSlabsGrowWithThePool(t *testing.T) {
	for _, n := range []int{1, 100, 1000, 100_000} {
		var p EventPool
		slabs := 0
		for i := 0; i < n; i++ {
			if len(p.free) == 0 {
				slabs++
			}
			p.get()
		}
		// Eight slabs of eventSlab make 256 events; every later slab
		// multiplies what the pool has made by about 9/8.
		limit := 8 + max(0, int(math.Ceil(math.Log(float64(n)/256)/math.Log(9.0/8))))
		if slabs > limit+1 {
			t.Errorf("%d live events took %d slabs, want at most %d", n, slabs, limit+1)
		}
		if unused := len(p.free); p.made != n+unused || unused > n/8+eventSlab {
			t.Errorf("%d live events: pool made %d and holds %d unused, want made = live + unused and unused ≤ %d",
				n, p.made, unused, n/8+eventSlab)
		}
	}
}
