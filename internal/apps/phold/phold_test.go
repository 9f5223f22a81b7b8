package phold

import (
	"testing"

	"nicwarp/internal/timewarp"
)

// busyParams is a small but busy configuration.
var busyParams = Params{Objects: 32, Population: 1, Hops: 200, MeanDelay: 50, Locality: 0.2}

func TestParamsValidate(t *testing.T) {
	if busyParams.Validate() != nil {
		t.Fatal("busy params must validate")
	}
	bad := []Params{
		{Objects: 0, MeanDelay: 1},
		{Objects: 4, Population: -1, MeanDelay: 1},
		{Objects: 4, Hops: -1, MeanDelay: 1},
		{Objects: 4, MeanDelay: 0},
		{Objects: 4, MeanDelay: 1, Locality: 2},
	}
	for i, p := range bad {
		if p.Validate() == nil {
			t.Fatalf("params %d accepted", i)
		}
	}
}

func TestEventCountBounds(t *testing.T) {
	p := Params{Objects: 8, Population: 2, Hops: 50, MeanDelay: 20, Locality: 0}
	objs, _ := New(p).Build(4, 7)
	res := timewarp.Sequential(objs, 1_000_000)
	// Initial population 16 events; each execution consumes at most one
	// budget unit.
	if res.TotalEvents < 16 {
		t.Fatalf("events = %d, below initial population", res.TotalEvents)
	}
	if res.TotalEvents > 16+8*50 {
		t.Fatalf("events = %d, beyond budget bound %d", res.TotalEvents, 16+8*50)
	}
}

func TestLocalityPlacement(t *testing.T) {
	p := Params{Objects: 12, Population: 1, Hops: 10, MeanDelay: 20, Locality: 1}
	app := New(p)
	objs, place := app.Build(3, 1)
	if len(objs) != 12 {
		t.Fatalf("objects = %d", len(objs))
	}
	// With Locality = 1, a destination must always share the sender's LP.
	o := objs[timewarp.ObjectID(4)].(*object)
	for i := 0; i < 200; i++ {
		dst := o.pick()
		if place(dst) != place(timewarp.ObjectID(4)) {
			t.Fatalf("locality-1 pick %d landed on LP %d, want %d",
				dst, place(dst), place(timewarp.ObjectID(4)))
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() timewarp.SequentialResult {
		objs, _ := New(busyParams).Build(4, 3)
		return timewarp.Sequential(objs, 1_000_000)
	}
	a, b := run(), run()
	if a.Digest != b.Digest || a.TotalEvents != b.TotalEvents {
		t.Fatal("not deterministic")
	}
}

func TestNewRejectsBadParams(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Params{})
}
