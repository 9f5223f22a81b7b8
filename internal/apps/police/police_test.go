package police

import (
	"testing"

	"nicwarp/internal/timewarp"
)

func small(stations int) Params {
	p := DefaultConfig(stations)
	p.IncidentsPerStation = 3
	p.IncidentMean = 300
	return p
}

func TestParamsValidate(t *testing.T) {
	if DefaultConfig(900).Validate() != nil {
		t.Fatal("paper config must validate")
	}
	bad := []Params{
		{Stations: 0, Centres: 8, QueryFanout: 1, IncidentMean: 1},
		{Stations: 10, Centres: 0, QueryFanout: 1, IncidentMean: 1},
		{Stations: 10, Centres: 8, QueryFanout: 0, IncidentMean: 1},
		{Stations: 10, Centres: 8, QueryFanout: 1, IncidentMean: 0},
		{Stations: 10, Centres: 8, QueryFanout: 1, IncidentMean: 1, BusyFraction: 1.5},
		{Stations: 1 << 25, Centres: 8, QueryFanout: 1, IncidentMean: 1},
		// An incident counts its replies in a uint8: a burst of 256 would
		// wrap it to 0 and never abandon an all-busy incident.
		{Stations: 10, Centres: 8, QueryFanout: 256, IncidentMean: 1},
	}
	for i, p := range bad {
		if p.Validate() == nil {
			t.Fatalf("params %d accepted", i)
		}
	}
	if err := (Params{Stations: 10, Centres: 8, QueryFanout: 255, IncidentMean: 1}).Validate(); err != nil {
		t.Fatalf("a burst of 255 rejected: %v", err)
	}
}

func TestPayloadEncoding(t *testing.T) {
	p := payload(msgAssign, 123456, 9999)
	if payloadKind(p) != msgAssign || payloadIncident(p) != 123456 || payloadStation(p) != 9999 {
		t.Fatalf("round trip failed: kind=%d inc=%d st=%d",
			payloadKind(p), payloadIncident(p), payloadStation(p))
	}
}

func TestBuildCounts(t *testing.T) {
	app := New(small(100))
	objs, place := app.Build(8, 1)
	if len(objs) != 100+8 {
		t.Fatalf("objects = %d, want 108", len(objs))
	}
	for id := range objs {
		lp := place(id)
		if lp < 0 || lp >= 8 {
			t.Fatalf("object %d on invalid LP %d", id, lp)
		}
	}
}

func TestCentreAssignmentCrossesLPs(t *testing.T) {
	p := small(64)
	app := New(p)
	_, place := app.Build(8, 1)
	cross := 0
	for i := 0; i < p.Stations; i++ {
		stLP := place(p.stationID(i))
		cLP := place(p.centreID(p.centreOf(i)))
		if stLP != cLP {
			cross++
		}
	}
	if cross == 0 {
		t.Fatal("no station-centre pair crosses LPs; the model would not communicate")
	}
}

func TestSequentialDeterminismAndTermination(t *testing.T) {
	app := New(small(60))
	run := func() timewarp.SequentialResult {
		objs, _ := app.Build(8, 11)
		return timewarp.Sequential(objs, 5_000_000)
	}
	a, b := run(), run()
	if a.Digest != b.Digest || a.TotalEvents != b.TotalEvents {
		t.Fatal("oracle not deterministic")
	}
	// Every incident produces at least report + fanout queries + replies.
	min := 60 * 3 * (1 + 1)
	if a.TotalEvents < min {
		t.Fatalf("events = %d, expected at least %d", a.TotalEvents, min)
	}
}

func TestIncidentsAllAccountedFor(t *testing.T) {
	p := small(40)
	app := New(p)
	objs, _ := app.Build(4, 5)
	timewarp.Sequential(objs, 5_000_000)
	// After quiescence every incident was resolved or abandoned.
	var resolved, abandoned, raised uint64
	for c := 0; c < p.Centres; c++ {
		obj := objs[p.centreID(c)].(*centre)
		resolved += obj.st.resolved
		abandoned += obj.st.abandoned
		raised += uint64(obj.st.nextIncident)
		if obj.st.openCount != 0 {
			t.Fatalf("centre %d still has %d open incidents", c, obj.st.openCount)
		}
	}
	if raised != uint64(p.Stations*p.IncidentsPerStation) {
		t.Fatalf("raised %d incidents, want %d", raised, p.Stations*p.IncidentsPerStation)
	}
	if resolved+abandoned != raised {
		t.Fatalf("resolved %d + abandoned %d != raised %d", resolved, abandoned, raised)
	}
	if resolved == 0 {
		t.Fatal("nothing resolved; dispatch path broken")
	}
}

func TestStationBusyPath(t *testing.T) {
	// With BusyFraction 1 every query comes back busy and every incident is
	// abandoned.
	p := small(30)
	p.BusyFraction = 1
	objs, _ := New(p).Build(4, 2)
	timewarp.Sequential(objs, 5_000_000)
	var resolved, abandoned uint64
	for c := 0; c < p.Centres; c++ {
		obj := objs[p.centreID(c)].(*centre)
		resolved += obj.st.resolved
		abandoned += obj.st.abandoned
	}
	if resolved != 0 {
		t.Fatalf("resolved %d incidents with all units busy", resolved)
	}
	if abandoned != uint64(p.Stations*p.IncidentsPerStation) {
		t.Fatalf("abandoned = %d, want all", abandoned)
	}
}

func TestSeedChangesResults(t *testing.T) {
	app := New(small(50))
	o1, _ := app.Build(8, 1)
	o2, _ := app.Build(8, 2)
	r1 := timewarp.Sequential(o1, 5_000_000)
	r2 := timewarp.Sequential(o2, 5_000_000)
	if r1.Digest == r2.Digest {
		t.Fatal("different seeds gave identical digests")
	}
}

func TestSingleCentreConfiguration(t *testing.T) {
	p := small(20)
	p.Centres = 1
	objs, _ := New(p).Build(2, 3)
	res := timewarp.Sequential(objs, 5_000_000)
	if res.TotalEvents == 0 {
		t.Fatal("single-centre run did nothing")
	}
}

// TestBuildSharesSnapshotsWithinAnLP: objects share a snapshot list exactly
// when they are of one type and place puts them on the same LP. A list is
// then only ever touched by the one kernel that runs those objects, which is
// what keeps a sharded run free of races.
func TestBuildSharesSnapshotsWithinAnLP(t *testing.T) {
	const numLPs = 3
	objs, place := New(small(40)).Build(numLPs, 1)
	type key struct {
		kind string
		lp   int
	}
	keyOf := map[any]key{}
	listOf := map[key]any{}
	for id, obj := range objs {
		lists := map[string]any{}
		switch o := obj.(type) {
		case *station:
			lists["station"] = o.snaps
		case *centre:
			lists["centre"], lists["small centre"] = o.snaps, o.small
		}
		for kind, s := range lists {
			k := key{kind, place(id)}
			if other, ok := keyOf[s]; ok && other != k {
				t.Fatalf("object %d (%v) shares a snapshot list with a %v", id, k, other)
			}
			if other, ok := listOf[k]; ok && other != s {
				t.Fatalf("object %d has a snapshot list of its own (%v)", id, k)
			}
			keyOf[s], listOf[k] = k, s
		}
	}
	if len(keyOf) != 3*numLPs {
		t.Fatalf("%d snapshot lists for three snapshot kinds on %d LPs", len(keyOf), numLPs)
	}
}

// TestCentreSnapshotRoundTrip drives a centre's open table through every
// count from empty to full. At each count a snapshot is saved, the centre
// is mutated (a slot dropped, every scalar and the generator moved) and the
// snapshot restored: the state, the zero slots past openCount included,
// and the digest must be the saved ones. A centre with at most smallOpen
// open incidents saves a small snapshot, a fuller one a whole one, and a
// released snapshot of either kind is what the next save of that kind
// returns.
func TestCentreSnapshotRoundTrip(t *testing.T) {
	objs, _ := New(small(40)).Build(1, 1)
	c := objs[0].(*centre)
	for n := 0; n <= openTableSize; n++ {
		if n > 0 {
			c.st.nextIncident++
			c.st.open[c.st.openCount] = openIncident{
				id: c.st.nextIncident, origin: uint32(7 * n), assigned: n%2 == 0, replies: uint8(n % 3),
			}
			c.st.openCount++
			c.st.acc = timewarp.DigestMix(c.st.acc, uint64(n))
		}
		want, digest := c.st, c.Digest()
		v := c.SaveState()
		if _, isSmall := v.(*smallCentreState); isSmall != (n <= smallOpen) {
			t.Fatalf("%d open: small snapshot %v, want %v", n, isSmall, n <= smallOpen)
		}
		if n > 0 {
			c.dropSlot(0)
		}
		c.st.resolved++
		c.st.abandoned += 2
		c.st.nextIncident += 3
		c.st.acc ^= 0xFF
		c.st.rnd.Uint64()
		c.RestoreState(v)
		if c.st != want || c.Digest() != digest {
			t.Fatalf("%d open: restored %+v, want %+v", n, c.st, want)
		}
		c.ReleaseState(v)
		if again := c.SaveState(); again != v {
			t.Fatalf("%d open: the next save did not reuse the released snapshot", n)
		}
		c.ReleaseState(v)
	}
}
