package nicwarp

import (
	"fmt"
	"runtime"
	"testing"

	"nicwarp/internal/timewarp"
)

// TestSteadyStateAllocationsPerEvent is the end-to-end allocation gate: the
// raid-hostgvt benchmark shape (host Mattern GVT at period 1, several
// control packets per committed event) runs at two sizes, and the extra
// heap objects the longer run makes, divided by the extra events it
// commits, must stay a small fraction of one. Set-up and warm-up cost the
// same at both sizes and cancel; what is left is the steady state, where
// tokens travel in the packets they arrived in, snapshots and output rows
// are recycled per object and pool misses come in slabs. With one packet
// clone per token hop and one boxed snapshot per event this read about 11.
func TestSteadyStateAllocationsPerEvent(t *testing.T) {
	run := func(requests int) (mallocs uint64, committed int) {
		cfg := Config{App: RAID(RAIDGVTConfig(requests)), Nodes: 8, Seed: 1, GVT: GVTHostMattern, GVTPeriod: 1}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		res, err := Run(cfg)
		runtime.ReadMemStats(&m1)
		if err != nil {
			t.Fatal(err)
		}
		return m1.Mallocs - m0.Mallocs, res.CommittedEvents
	}
	smallAllocs, smallEvents := run(500)
	largeAllocs, largeEvents := run(2000)
	if largeEvents < 2*smallEvents {
		t.Fatalf("the larger run committed %d events against %d: not a size sweep", largeEvents, smallEvents)
	}
	perEvent := (float64(largeAllocs) - float64(smallAllocs)) / float64(largeEvents-smallEvents)
	t.Logf("%d allocations for %d events, %d for %d: %.3f per extra committed event",
		smallAllocs, smallEvents, largeAllocs, largeEvents, perEvent)
	if perEvent > 0.5 {
		t.Fatalf("%.2f heap allocations per extra committed event, want at most 0.5", perEvent)
	}
}

// TestDeepHistoryAllocationsPerEvent is the same measurement where history
// grows as deep as a run lets it: POLICE under host Mattern with a GVT
// period no run reaches, so nothing is fossil-collected before the end and
// every object keeps a snapshot per event it executed. Snapshots then come
// a slab at a time from each object's free list and rollbacks hand theirs
// back for re-execution to reuse. With one fresh snapshot per history entry
// above the object's earlier depth this read about 2.
func TestDeepHistoryAllocationsPerEvent(t *testing.T) {
	run := func(incidents int) (mallocs uint64, committed int) {
		p := PoliceConfig(60)
		p.IncidentsPerStation = incidents
		cfg := Config{App: Police(p), Nodes: 8, Seed: 1, GVT: GVTHostMattern, GVTPeriod: 1_000_000_000}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		res, err := Run(cfg)
		runtime.ReadMemStats(&m1)
		if err != nil {
			t.Fatal(err)
		}
		return m1.Mallocs - m0.Mallocs, res.CommittedEvents
	}
	smallAllocs, smallEvents := run(5)
	largeAllocs, largeEvents := run(20)
	if largeEvents < 2*smallEvents {
		t.Fatalf("the larger run committed %d events against %d: not a size sweep", largeEvents, smallEvents)
	}
	perEvent := (float64(largeAllocs) - float64(smallAllocs)) / float64(largeEvents-smallEvents)
	t.Logf("%d allocations for %d events, %d for %d: %.3f per extra committed event",
		smallAllocs, smallEvents, largeAllocs, largeEvents, perEvent)
	if perEvent > 1.0 {
		t.Fatalf("%.2f heap allocations per extra committed event, want at most 1.0", perEvent)
	}
}

// TestEveryModelObjectReusesSnapshots: each simulation object the three
// application models build implements timewarp.StateReuser, and a snapshot
// handed back to it is the one its next SaveState returns.
func TestEveryModelObjectReusesSnapshots(t *testing.T) {
	apps := []App{
		RAID(RAIDGVTConfig(10)),
		Police(PoliceConfig(16)),
		PHOLD(PHOLDParams{Objects: 8, Population: 1, Hops: 4, MeanDelay: 10}),
	}
	kinds := map[string]bool{}
	for _, app := range apps {
		objs, _ := app.Build(4, 1)
		for id, obj := range objs {
			r, ok := obj.(timewarp.StateReuser)
			if !ok {
				t.Fatalf("%s: object %d (%T) does not implement timewarp.StateReuser", app.Name(), id, obj)
			}
			first := obj.SaveState()
			r.ReleaseState(first)
			if again := obj.SaveState(); again != first {
				t.Fatalf("%s: object %d (%T) did not reuse the snapshot it was handed", app.Name(), id, obj)
			}
			kinds[fmt.Sprintf("%T", obj)] = true
		}
	}
	if len(kinds) != 6 {
		t.Fatalf("checked %d object types %v, want the six the models define", len(kinds), kinds)
	}
}
