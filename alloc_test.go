package nicwarp

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"nicwarp/internal/core"
	"nicwarp/internal/runner"
	"nicwarp/internal/simnet"
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
//
// Bytes are gated beside objects, because one slab miss is one object but
// kilobytes: a pool that keeps growing with traffic shows up here first.
// With a packet free list per node, where packets left their sender's list
// and piled up in their receiver's, this read 94 bytes per extra committed
// event; one pool per shard brings every packet back to the list it left.
func TestSteadyStateAllocationsPerEvent(t *testing.T) {
	run := func(requests int) (mallocs, bytes uint64, committed int) {
		cfg := Config{App: RAID(RAIDGVTConfig(requests)), Nodes: 8, Seed: 1, GVT: GVTHostMattern, GVTPeriod: 1}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		res, err := Run(cfg)
		runtime.ReadMemStats(&m1)
		if err != nil {
			t.Fatal(err)
		}
		return m1.Mallocs - m0.Mallocs, m1.TotalAlloc - m0.TotalAlloc, res.CommittedEvents
	}
	smallAllocs, smallBytes, smallEvents := run(500)
	largeAllocs, largeBytes, largeEvents := run(2000)
	if largeEvents < 2*smallEvents {
		t.Fatalf("the larger run committed %d events against %d: not a size sweep", largeEvents, smallEvents)
	}
	extra := float64(largeEvents - smallEvents)
	perEvent := (float64(largeAllocs) - float64(smallAllocs)) / extra
	bytesPerEvent := (float64(largeBytes) - float64(smallBytes)) / extra
	t.Logf("%d allocations (%d B) for %d events, %d (%d B) for %d: %.3f allocations and %.1f B per extra committed event",
		smallAllocs, smallBytes, smallEvents, largeAllocs, largeBytes, largeEvents, perEvent, bytesPerEvent)
	if perEvent > 0.5 {
		t.Fatalf("%.2f heap allocations per extra committed event, want at most 0.5", perEvent)
	}
	if bytesPerEvent > 32 {
		t.Fatalf("%.1f heap bytes per extra committed event, want at most 32", bytesPerEvent)
	}
}

// TestDeepHistoryAllocationsPerEvent is the same measurement where history
// grows as deep as a run lets it: POLICE under host Mattern with a GVT
// period no run reaches, so nothing is fossil-collected before the end and
// every object keeps a snapshot per event it executed. Snapshots then come
// a slab at a time from each object's free list and rollbacks hand theirs
// back for re-execution to reuse. With one fresh snapshot per history entry
// above the object's earlier depth this read about 2.
//
// Bytes are gated too, since here they are what a history entry and its
// snapshot hold: with every centre snapshot its whole 432-byte state and a
// 40-byte history entry this read about 182 bytes per extra committed
// event.
func TestDeepHistoryAllocationsPerEvent(t *testing.T) {
	run := func(incidents int) (mallocs, bytes uint64, committed int) {
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
		return m1.Mallocs - m0.Mallocs, m1.TotalAlloc - m0.TotalAlloc, res.CommittedEvents
	}
	smallAllocs, smallBytes, smallEvents := run(5)
	largeAllocs, largeBytes, largeEvents := run(20)
	if largeEvents < 2*smallEvents {
		t.Fatalf("the larger run committed %d events against %d: not a size sweep", largeEvents, smallEvents)
	}
	extra := float64(largeEvents - smallEvents)
	perEvent := (float64(largeAllocs) - float64(smallAllocs)) / extra
	bytesPerEvent := (float64(largeBytes) - float64(smallBytes)) / extra
	t.Logf("%d allocations (%d B) for %d events, %d (%d B) for %d: %.3f allocations and %.1f B per extra committed event",
		smallAllocs, smallBytes, smallEvents, largeAllocs, largeBytes, largeEvents, perEvent, bytesPerEvent)
	if perEvent > 1.0 {
		t.Fatalf("%.2f heap allocations per extra committed event, want at most 1.0", perEvent)
	}
	if bytesPerEvent > 160 {
		t.Fatalf("%.1f heap bytes per extra committed event, want at most 160", bytesPerEvent)
	}
}

// TestTreeGVTAllocationsPerComputation gates what grows with the cluster
// rather than with traffic: PHOLD on a 64-node fat tree under the
// tree-reduction NIC GVT runs at two lengths, and the extra heap objects
// the longer run makes, divided by the extra GVT computations it completes,
// must stay a handful. A computation sends one start, one reduce and one
// value packet over every tree edge; a tree parent injects more of them
// than it consumes. With control packets drawn from a per-NIC free list, a
// step's remote sends growing a fresh slice and peer tables grown a slot at
// a time, this read about 60.
func TestTreeGVTAllocationsPerComputation(t *testing.T) {
	run := func(hops int) (mallocs uint64, computations int64) {
		cfg := Config{
			App:   PHOLD(PHOLDParams{Objects: 128, Population: 1, Hops: hops, MeanDelay: 50, Locality: 0.2}),
			Nodes: 64, Seed: 1, GVT: GVTNICTree, GVTPeriod: 100, Net: simnet.Config{Topology: TopoFatTree},
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		res, err := Run(cfg)
		runtime.ReadMemStats(&m1)
		if err != nil {
			t.Fatal(err)
		}
		return m1.Mallocs - m0.Mallocs, res.GVTComputations
	}
	shortAllocs, shortComps := run(100)
	longAllocs, longComps := run(800)
	if longComps < 2*shortComps {
		t.Fatalf("the longer run completed %d GVT computations against %d: not a length sweep", longComps, shortComps)
	}
	perComp := (float64(longAllocs) - float64(shortAllocs)) / float64(longComps-shortComps)
	t.Logf("%d allocations for %d computations, %d for %d: %.1f per extra computation",
		shortAllocs, shortComps, longAllocs, longComps, perComp)
	if perComp > 8 {
		t.Fatalf("%.1f heap allocations per extra GVT computation, want at most 8", perComp)
	}
}

// TestRingGVTAllocationsPerComputation is the ring NIC GVT's twin of the
// tree gate: RAID on 8 nodes under GVTNIC at period 10 runs at two lengths,
// and the extra heap objects per extra GVT computation must stay a couple.
// A computation ends in a broadcast of the new GVT to every other NIC. With
// each replica cloned on the heap, and released by its receiver into that
// engine's pool, this read 7.78 and a pool ended 24–60 packets above what
// it had made.
func TestRingGVTAllocationsPerComputation(t *testing.T) {
	run := func(requests int) (mallocs uint64, computations int64) {
		cfg := Config{App: RAID(RAIDGVTConfig(requests)), Nodes: 8, Seed: 1, GVT: GVTNIC, GVTPeriod: 10}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		res, err := Run(cfg)
		runtime.ReadMemStats(&m1)
		if err != nil {
			t.Fatal(err)
		}
		return m1.Mallocs - m0.Mallocs, res.GVTComputations
	}
	shortAllocs, shortComps := run(500)
	longAllocs, longComps := run(4000)
	if longComps < 2*shortComps {
		t.Fatalf("the longer run completed %d GVT computations against %d: not a length sweep", longComps, shortComps)
	}
	perComp := (float64(longAllocs) - float64(shortAllocs)) / float64(longComps-shortComps)
	t.Logf("%d allocations for %d computations, %d for %d: %.2f per extra computation",
		shortAllocs, shortComps, longAllocs, longComps, perComp)
	if perComp > 2 {
		t.Fatalf("%.2f heap allocations per extra GVT computation, want at most 2", perComp)
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

// TestClusterAllocationsPerNode gates what a node costs: PHOLD with two
// objects per node on a fat tree under the tree-reduction NIC GVT is
// assembled and run at 64 and 128 nodes, and the extra heap objects the
// larger cluster makes, divided by the extra nodes, must stay a few. Built
// from a heap object per hardware component, a formatted name per resource,
// a private pool per NIC and MPICH endpoint replaced at once and peer tables
// grown in steps, assembly read 34.1 per extra node and the whole run 60.4
// (20.4 KB). With a hash map, an event pool and scheduler arrays per kernel
// and two bound method values per NIC, they read 7.0 and 17.0 (about 20 under
// the race detector).
func TestClusterAllocationsPerNode(t *testing.T) {
	config := func(nodes int) Config {
		return Config{
			App:   PHOLD(PHOLDParams{Objects: 2 * nodes, Population: 1, Hops: 1, MeanDelay: 50, Locality: 0.2}),
			Nodes: nodes, Seed: 1, GVT: GVTNICTree, GVTPeriod: 100, Net: simnet.Config{Topology: TopoFatTree},
		}
	}
	measure := func(f func()) (mallocs, bytes uint64) {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		f()
		runtime.ReadMemStats(&m1)
		return m1.Mallocs - m0.Mallocs, m1.TotalAlloc - m0.TotalAlloc
	}
	assemble := func(nodes int) uint64 {
		allocs, _ := measure(func() {
			if _, err := core.NewClusterExec(config(nodes), core.Exec{}); err != nil {
				t.Fatal(err)
			}
		})
		return allocs
	}
	run := func(nodes int) (mallocs, bytes uint64) {
		return measure(func() {
			if _, err := Run(config(nodes)); err != nil {
				t.Fatal(err)
			}
		})
	}
	const small, large = 64, 128
	extra := float64(large - small)
	perNode := func(a, b uint64) float64 { return (float64(b) - float64(a)) / extra }
	assembly := perNode(assemble(small), assemble(large))
	smallAllocs, smallBytes := run(small)
	largeAllocs, largeBytes := run(large)
	allocs, bytes := perNode(smallAllocs, largeAllocs), perNode(smallBytes, largeBytes)
	t.Logf("per extra node: %.1f allocations to assemble; %.1f allocations and %.0f B to run (%d/%d allocations at %d/%d nodes)",
		assembly, allocs, bytes, smallAllocs, largeAllocs, small, large)
	if assembly > 3 {
		t.Errorf("assembly makes %.1f heap allocations per extra node, want at most 3", assembly)
	}
	if allocs > 10 {
		t.Errorf("a run makes %.1f heap allocations per extra node, want at most 10", allocs)
	}
	if bytes > 20_400 {
		t.Errorf("a run allocates %.0f B per extra node, want at most 20.4 KB", bytes)
	}
}

// TestWarmPointBytes gates what a sweep point costs on a runner worker that
// has already run one: a one-worker runner runs one copy of a fig5 point
// and then six, and the bytes each extra copy allocates must stay well
// below what the first one allocated. With every point growing its own
// packet and event pools, node slice, peer tables, kernel rows, engine
// arrays and fabric ports and dropping them, an extra copy cost as much as
// the first (1.00×, 813 allocations).
func TestWarmPointBytes(t *testing.T) {
	exp, err := ExperimentByName("fig5")
	if err != nil {
		t.Fatal(err)
	}
	const name = "fig5/period=1/mattern"
	i := slices.IndexFunc(exp.Jobs(FigureOpts{Scale: 0.02}), func(j runner.Job) bool { return j.Name == name })
	if i < 0 {
		t.Fatalf("fig5 has no point %s", name)
	}
	job := exp.Jobs(FigureOpts{Scale: 0.02})[i]
	run := func(copies int) (mallocs, bytes uint64) {
		jobs := make([]runner.Job, copies)
		for k := range jobs {
			jobs[k] = job
			jobs[k].Name = fmt.Sprintf("%s#%d", name, k)
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		results := (&runner.Runner{Workers: 1}).Run(jobs)
		runtime.ReadMemStats(&m1)
		for _, r := range results {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
		}
		return m1.Mallocs - m0.Mallocs, m1.TotalAlloc - m0.TotalAlloc
	}
	const extra = 5
	oneAllocs, oneBytes := run(1)
	manyAllocs, manyBytes := run(1 + extra)
	perAllocs := (float64(manyAllocs) - float64(oneAllocs)) / extra
	perBytes := (float64(manyBytes) - float64(oneBytes)) / extra
	ratio := perBytes / float64(oneBytes)
	t.Logf("first point %d allocations (%d B); each extra point %.0f allocations (%.0f B, %.2f× the first)",
		oneAllocs, oneBytes, perAllocs, perBytes, ratio)
	if ratio > 0.6 {
		t.Errorf("an extra point on a warm worker allocates %.2f× the first point's bytes, want at most 0.6×", ratio)
	}
}

// TestOracleBytes gates what the sequential oracle holds: over POLICE with
// 2000 stations on 8 LPs it must allocate at most 8 MiB beyond building the
// objects. Without fossil collection the oracle kept every event, snapshot
// and output copy of the run until it returned, and this read 52.6 MB.
func TestOracleBytes(t *testing.T) {
	objs, _ := Police(PoliceConfig(2000)).Build(8, 1)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ref := timewarp.Sequential(objs, 0)
	runtime.ReadMemStats(&m1)
	bytes := m1.TotalAlloc - m0.TotalAlloc
	t.Logf("%d events, %d allocations, %.1f MB", ref.TotalEvents, m1.Mallocs-m0.Mallocs, float64(bytes)/1e6)
	if bytes > 8<<20 {
		t.Errorf("the oracle allocated %.1f MB, want at most 8 MiB", float64(bytes)/1e6)
	}
}
