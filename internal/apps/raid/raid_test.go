package raid

import (
	"testing"

	"nicwarp/internal/timewarp"
)

func TestParamsValidate(t *testing.T) {
	if GVTConfig(1000).Validate() != nil || CancelConfig(1000).Validate() != nil {
		t.Fatal("paper configs must validate")
	}
	bad := []Params{
		{Sources: 0, Forks: 8, Disks: 8, Window: 1, ThinkMean: 1},
		{Sources: 1, Forks: 1, Disks: 1, Requests: -1, Window: 1, ThinkMean: 1},
		{Sources: 1, Forks: 1, Disks: 1, Window: 0, ThinkMean: 1},
		{Sources: 1, Forks: 1, Disks: 1, Window: 1, ThinkMean: 0},
		{Sources: 1, Forks: 1, Disks: 1, Window: 1, ThinkMean: 1, WriteFraction: 2},
	}
	for i, p := range bad {
		if p.Validate() == nil {
			t.Fatalf("params %d accepted", i)
		}
	}
}

func TestPaperConfigurations(t *testing.T) {
	g := GVTConfig(1000)
	if g.Sources != 10 || g.Forks != 8 || g.Disks != 8 {
		t.Fatalf("GVT config = %+v, paper says 10/8/8", g)
	}
	c := CancelConfig(50000)
	if c.Sources != 16 || c.Forks != 8 || c.Disks != 8 {
		t.Fatalf("cancel config = %+v, paper says 16/8/8", c)
	}
	if c.Requests != 50000 {
		t.Fatal("request count not threaded through")
	}
}

func TestBuildPlacement(t *testing.T) {
	app := New(GVTConfig(100))
	objs, place := app.Build(8, 1)
	if len(objs) != 10+8+8 {
		t.Fatalf("objects = %d, want 26", len(objs))
	}
	// Fork i and disk i co-located on LP i (numLPs=8).
	p := app.Params
	for i := 0; i < 8; i++ {
		if place(p.forkID(i)) != i || place(p.diskID(i)) != i {
			t.Fatalf("fork/disk %d misplaced", i)
		}
	}
	for id := range objs {
		lp := place(id)
		if lp < 0 || lp >= 8 {
			t.Fatalf("object %d on invalid LP %d", id, lp)
		}
	}
}

func TestSequentialDeterminism(t *testing.T) {
	app := New(GVTConfig(500))
	run := func() timewarp.SequentialResult {
		objs, _ := app.Build(8, 42)
		return timewarp.Sequential(objs, 1_000_000)
	}
	a, b := run(), run()
	if a.Digest != b.Digest || a.TotalEvents != b.TotalEvents {
		t.Fatal("oracle not deterministic")
	}
	if a.TotalEvents < 500 {
		t.Fatalf("only %d events for 500 requests", a.TotalEvents)
	}
}

func TestRequestQuotaDistribution(t *testing.T) {
	// 103 requests over 10 sources: every request is issued exactly once.
	app := New(GVTConfig(103))
	objs, _ := app.Build(8, 9)
	res := timewarp.Sequential(objs, 1_000_000)
	// Each request produces one fork event; count fork executions.
	forkEvents := 0
	p := app.Params
	for i := 0; i < p.Forks; i++ {
		forkEvents += res.Processed[p.forkID(i)]
	}
	if forkEvents != 103 {
		t.Fatalf("fork executions = %d, want 103", forkEvents)
	}
}

func TestWritesTouchTwoDisks(t *testing.T) {
	// With WriteFraction 1, every request reaches two disks.
	p := GVTConfig(200)
	p.WriteFraction = 1
	objs, _ := New(p).Build(4, 3)
	res := timewarp.Sequential(objs, 1_000_000)
	diskEvents := 0
	for i := 0; i < p.Disks; i++ {
		diskEvents += res.Processed[p.diskID(i)]
	}
	if diskEvents != 400 {
		t.Fatalf("disk accesses = %d, want 400 (data+parity)", diskEvents)
	}
}

func TestZeroRequestsTerminatesImmediately(t *testing.T) {
	objs, _ := New(GVTConfig(0)).Build(8, 1)
	res := timewarp.Sequential(objs, 1000)
	if res.TotalEvents != 0 {
		t.Fatalf("events = %d for zero requests", res.TotalEvents)
	}
}

func TestSeedChangesResults(t *testing.T) {
	app := New(GVTConfig(300))
	o1, _ := app.Build(8, 1)
	o2, _ := app.Build(8, 2)
	r1 := timewarp.Sequential(o1, 1_000_000)
	r2 := timewarp.Sequential(o2, 1_000_000)
	if r1.Digest == r2.Digest {
		t.Fatal("different seeds gave identical digests")
	}
}

// TestBuildSharesSnapshotsWithinAnLP: objects share a snapshot list exactly
// when they are of one type and place puts them on the same LP. A list is
// then only ever touched by the one kernel that runs those objects, which is
// what keeps a sharded run free of races.
func TestBuildSharesSnapshotsWithinAnLP(t *testing.T) {
	const numLPs = 3
	objs, place := New(CancelConfig(100)).Build(numLPs, 1)
	type key struct {
		kind string
		lp   int
	}
	keyOf := map[any]key{}
	listOf := map[key]any{}
	for id, obj := range objs {
		var k key
		var s any
		switch o := obj.(type) {
		case *source:
			k, s = key{"source", place(id)}, o.snaps
		case *fork:
			k, s = key{"fork", place(id)}, o.snaps
		case *disk:
			k, s = key{"disk", place(id)}, o.snaps
		}
		if other, ok := keyOf[s]; ok && other != k {
			t.Fatalf("object %d (%v) shares a snapshot list with a %v", id, k, other)
		}
		if other, ok := listOf[k]; ok && other != s {
			t.Fatalf("object %d has a snapshot list of its own (%v)", id, k)
		}
		keyOf[s], listOf[k] = k, s
	}
	if len(keyOf) != 3*numLPs {
		t.Fatalf("%d snapshot lists for three object types on %d LPs", len(keyOf), numLPs)
	}
}
