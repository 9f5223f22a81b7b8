package des

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"nicwarp/internal/vtime"
)

// ringNode is a test model node: it logs every arrival and forwards a token
// around the ring with a fixed cross-lane latency, plus two same-instant
// local events per arrival to exercise tie-breaking.
type ringNode struct {
	eng  *Engine
	lane uint32
	next *ringNode
	log  []string
}

const ringLatency = 100 * vtime.Nanosecond

func ringArrive(a, b interface{}) {
	n := a.(*ringNode)
	hops := b.(int)
	n.log = append(n.log, fmt.Sprintf("arrive@%d hops=%d", n.eng.Now(), hops))
	// Two local events at the same instant: their relative order is fixed by
	// the lane-keyed sequence, not by which engine hosts the lane.
	n.eng.AtArg(n.eng.Now(), ringLocal, n)
	n.eng.AtArg(n.eng.Now(), ringLocal, n)
	if hops > 0 {
		t := n.eng.Now() + ringLatency
		n.eng.AtCross(n.next.eng, n.next.lane, t, ringArrive, n.next, hops-1)
	}
}

func ringLocal(a interface{}) {
	n := a.(*ringNode)
	n.log = append(n.log, fmt.Sprintf("local@%d", n.eng.Now()))
}

// buildRing places `nodes` ring nodes across the given engines round-robin
// and starts `tokens` tokens from distinct nodes at staggered times.
func buildRing(engines []*Engine, nodes, tokens, hops int) []*ringNode {
	ring := make([]*ringNode, nodes)
	for i := range ring {
		ring[i] = &ringNode{eng: engines[i%len(engines)], lane: uint32(i)}
	}
	for i := range ring {
		ring[i].next = ring[(i+1)%nodes]
	}
	for t := 0; t < tokens; t++ {
		n := ring[(t*3)%nodes]
		n.eng.SetLane(n.lane)
		start := vtime.ModelTime(t * 7)
		n.eng.AtCross(n.eng, n.lane, start, ringArrive, n, hops)
	}
	return ring
}

// runRing runs a ring on `shards` engines and returns its per-lane logs. A
// non-nil probe runs as a callback on the first engine at time zero.
func runRing(shards, nodes, tokens, hops int, probe func()) [][]string {
	engines := make([]*Engine, shards)
	for i := range engines {
		engines[i] = NewEngine()
	}
	g := NewGroup(engines, ringLatency)
	ring := buildRing(engines, nodes, tokens, hops)
	if probe != nil {
		atFunc(engines[0], 0, probe)
	}
	g.Run(vtime.ModelInfinity)
	logs := make([][]string, nodes)
	for i, n := range ring {
		logs[i] = n.log
	}
	return logs
}

// TestGroupMatchesSerial is the core determinism property: the per-lane
// event logs of a sharded run are byte-identical to the single-engine run,
// for every shard count.
func TestGroupMatchesSerial(t *testing.T) {
	const nodes, tokens, hops = 6, 4, 40
	want := runRing(1, nodes, tokens, hops, nil)
	for _, shards := range []int{2, 3, 4, 6} {
		got := runRing(shards, nodes, tokens, hops, nil)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("shards=%d: per-lane logs differ from serial\nserial: %v\nsharded: %v", shards, want, got)
		}
	}
}

// groupWorkers counts the goroutines a Group's Run started and that have
// not exited, read off every goroutine's stack by their creation site: a
// worker not yet scheduled shows no workerLoop frame, and a plain goroutine
// count would also see runtime and test goroutines come and go.
func groupWorkers() int {
	buf := make([]byte, 64<<10)
	n := runtime.Stack(buf, true)
	for n == len(buf) {
		buf = make([]byte, 2*len(buf))
		n = runtime.Stack(buf, true)
	}
	return strings.Count(string(buf[:n]), "created by nicwarp/internal/des.(*Group).Run ")
}

// workersGone waits for every Group worker to exit. A worker calls wg.Done
// just before it returns, so Run can return a moment before its workers
// are gone.
func workersGone(t *testing.T) {
	t.Helper()
	for deadline := time.Now().Add(time.Second); groupWorkers() > 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d Group workers outlive Run, want 0", groupWorkers())
		}
	}
}

// TestGroupDealsEnginesToProcessors: Run deals its engines to
// min(engines, GOMAXPROCS) goroutines, the caller included, so it starts
// one fewer, and the deal — even or uneven — never shows in the logs.
func TestGroupDealsEnginesToProcessors(t *testing.T) {
	const nodes, tokens, hops = 6, 4, 40
	want := runRing(1, nodes, tokens, hops, nil)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 3} {
		runtime.GOMAXPROCS(procs)
		for _, engines := range []int{1, 2, 3, 5} {
			workersGone(t)
			started := -1
			got := runRing(engines, nodes, tokens, hops, func() { started = groupWorkers() })
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("GOMAXPROCS=%d engines=%d: per-lane logs differ from one engine\none: %v\ndealt: %v",
					procs, engines, want, got)
			}
			if k := min(engines, procs); started != k-1 {
				t.Errorf("GOMAXPROCS=%d engines=%d: Run started %d workers, want %d", procs, engines, started, k-1)
			}
			workersGone(t)
		}
	}
}

// TestGroupPanicReachesCaller: a panic in a callback on any engine, in the
// caller's share or a worker's, reaches Run's caller, and no worker Run
// started outlives it.
func TestGroupPanicReachesCaller(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for _, n := range []int{2, 3} {
		for victim := 0; victim < n; victim++ {
			workersGone(t)
			engines := make([]*Engine, n)
			for i := range engines {
				engines[i] = NewEngine()
			}
			g := NewGroup(engines, ringLatency)
			buildRing(engines, 6, 4, 40)
			want := fmt.Sprintf("boom on engine %d", victim)
			atFunc(engines[victim], 5*ringLatency, func() { panic(want) })
			got := func() (p interface{}) {
				defer func() { p = recover() }()
				g.Run(vtime.ModelInfinity)
				return nil
			}()
			if got != want {
				t.Errorf("engines=%d victim=%d: recovered %v, want %q", n, victim, got, want)
			}
			workersGone(t)
		}
	}
}

// TestGroupProgressAndClock checks the group clock and processed counters
// line up with the serial run.
func TestGroupProgressAndClock(t *testing.T) {
	serialEng := NewEngine()
	serialG := NewGroup([]*Engine{serialEng}, ringLatency)
	buildRing([]*Engine{serialEng}, 4, 2, 10)
	serialG.Run(vtime.ModelInfinity)

	engines := []*Engine{NewEngine(), NewEngine()}
	g := NewGroup(engines, ringLatency)
	buildRing(engines, 4, 2, 10)
	g.Run(vtime.ModelInfinity)

	if g.Now() != serialEng.Now() {
		t.Fatalf("sharded clock %v != serial clock %v", g.Now(), serialEng.Now())
	}
	if n := engines[0].Processed() + engines[1].Processed(); n != serialEng.Processed() {
		t.Fatalf("sharded processed %d != serial %d", n, serialEng.Processed())
	}
	if g.Pending() != 0 {
		t.Fatalf("pending %d after drain", g.Pending())
	}
}

// TestGroupRunsAgainAfterDraining: events scheduled after a drained Run
// returns run under a second Run exactly as on a single engine.
func TestGroupRunsAgainAfterDraining(t *testing.T) {
	run := func(shards int) [][]string {
		engines := make([]*Engine, shards)
		for i := range engines {
			engines[i] = NewEngine()
		}
		g := NewGroup(engines, ringLatency)
		ring := buildRing(engines, 4, 2, 10)
		g.Run(vtime.ModelInfinity)
		// Two tokens on neighbouring nodes keep two shards busy per window,
		// so the second run goes through the worker barrier.
		start := g.Now() + ringLatency
		for _, n := range ring[:2] {
			n.eng.SetLane(n.lane)
			n.eng.AtCross(n.eng, n.lane, start, ringArrive, n, 10)
		}
		g.Run(vtime.ModelInfinity)
		if g.Pending() != 0 {
			t.Fatalf("shards=%d: pending %d after the second drain", shards, g.Pending())
		}
		logs := make([][]string, len(ring))
		for i, n := range ring {
			logs[i] = n.log
		}
		return logs
	}
	want := run(1)
	for _, shards := range []int{2, 4} {
		if got := run(shards); !reflect.DeepEqual(got, want) {
			t.Fatalf("shards=%d: per-lane logs differ from serial\nserial: %v\nsharded: %v", shards, want, got)
		}
	}
}

// TestGroupRunLimitInclusive checks events exactly at the limit run, and
// events past it stay pending — matching Engine.Run semantics.
func TestGroupRunLimitInclusive(t *testing.T) {
	engines := []*Engine{NewEngine(), NewEngine()}
	g := NewGroup(engines, 50)
	var fired []string
	atFunc(engines[0], 100, func() { fired = append(fired, "at-limit") })
	atFunc(engines[1], 101, func() { fired = append(fired, "past-limit") })
	g.Run(100)
	if len(fired) != 1 || fired[0] != "at-limit" {
		t.Fatalf("fired = %v, want [at-limit]", fired)
	}
	if g.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", g.Pending())
	}
}

// TestGroupLookaheadViolationPanics: an event bound for another lane that
// lands before now + lookahead must fail loudly, not silently reorder —
// across engines, and across lanes of one engine, so a serial run checks
// the contract a sharded run relies on.
func TestGroupLookaheadViolationPanics(t *testing.T) {
	cases := []struct {
		name    string
		engines int
	}{
		{"cross-engine", 2},
		{"one engine, cross-lane", 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			engines := make([]*Engine, tc.engines)
			for i := range engines {
				engines[i] = NewEngine()
			}
			g := NewGroup(engines, 100)
			dst := engines[len(engines)-1]
			atFunc(engines[0], 0, func() {
				// Claimed lookahead is 100, actual latency 1: a violation.
				engines[0].AtCross(dst, 1, 1, func(a, b interface{}) {}, nil, nil)
			})
			defer func() {
				if recover() == nil {
					t.Fatal("expected lookahead-violation panic")
				}
			}()
			g.Run(vtime.ModelInfinity)
		})
	}
}

// TestBarrierHorizonsIgnoreShardCount: a barrier sees the same sequence of
// window closes — clock, events run, events pending — whether the lanes
// share one engine or split across two. Everything read at the barrier
// leans on this.
func TestBarrierHorizonsIgnoreShardCount(t *testing.T) {
	closes := func(shards int) []string {
		engines := make([]*Engine, shards)
		for i := range engines {
			engines[i] = NewEngine()
		}
		g := NewGroup(engines, ringLatency)
		var seen []string
		g.SetBarrier(func() {
			var processed uint64
			for _, e := range engines {
				processed += e.Processed()
			}
			seen = append(seen, fmt.Sprintf("now=%d processed=%d pending=%d", g.Now(), processed, g.Pending()))
		})
		buildRing(engines, 4, 3, 20)
		g.Run(vtime.ModelInfinity)
		return seen
	}
	want := closes(1)
	if len(want) < 20 {
		t.Fatalf("only %d windows closed; the ring should need many", len(want))
	}
	if got := closes(2); !reflect.DeepEqual(got, want) {
		t.Fatalf("two engines closed windows differently from one:\none: %v\ntwo: %v", want, got)
	}
}

// TestLaneTieBreak: same-instant events on different lanes of one engine
// run in lane order regardless of scheduling order, and same-lane events
// run in scheduling order.
func TestLaneTieBreak(t *testing.T) {
	e := NewEngine()
	var order []string
	e.SetLane(2)
	atFunc(e, 10, func() { order = append(order, "lane2-a") })
	atFunc(e, 10, func() { order = append(order, "lane2-b") })
	e.SetLane(1)
	atFunc(e, 10, func() { order = append(order, "lane1") })
	e.Run(vtime.ModelInfinity)
	want := []string{"lane1", "lane2-a", "lane2-b"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

// TestAtCrossLocal: AtCross onto the scheduling engine inserts directly
// and executes on the destination lane.
func TestAtCrossLocal(t *testing.T) {
	e := NewEngine()
	var gotLane uint32
	e.SetLane(3)
	e.AtCross(e, 5, 7, func(a, b interface{}) {
		gotLane = e.curLane
		if a.(string) != "x" || b.(int) != 9 {
			t.Errorf("receivers = (%v, %v)", a, b)
		}
	}, "x", 9)
	e.Run(vtime.ModelInfinity)
	if gotLane != 5 {
		t.Fatalf("executed on lane %d, want 5", gotLane)
	}
}

// TestMergeOrderIsImmaterial: merge inserts staged events in whatever order
// the source outboxes hold them, which depends on the shard count. (time,
// order key) is a strict total order, so the destination must fire the same
// sequence however the staged set is shuffled and however it is split across
// sources — ties in time included.
func TestMergeOrderIsImmaterial(t *testing.T) {
	const events, sources = 200, 3
	rng := rand.New(rand.NewSource(7))
	var fired []int
	record := func(a, b interface{}) { fired = append(fired, b.(int)) }
	// Unique order keys over few distinct times, so most events tie on time.
	// Each event's payload is its index in the sorted order.
	staged := make([]stagedEv, events)
	for i := range staged {
		lane := uint32(rng.Intn(5))
		staged[i] = stagedEv{
			at:   vtime.ModelTime(10 * (1 + rng.Intn(8))),
			ord:  uint64(lane)<<laneSeqBits | uint64(i+1),
			lane: lane,
			fn2:  record,
		}
	}
	sort.Slice(staged, func(i, j int) bool {
		if staged[i].at != staged[j].at {
			return staged[i].at < staged[j].at
		}
		return staged[i].ord < staged[j].ord
	})
	want := make([]int, events)
	for i := range staged {
		staged[i].b = i
		want[i] = i
	}

	for trial := 0; trial < 20; trial++ {
		rng.Shuffle(events, func(i, j int) { staged[i], staged[j] = staged[j], staged[i] })
		engines := make([]*Engine, 1+sources)
		for i := range engines {
			engines[i] = NewEngine()
		}
		g := NewGroup(engines, 1)
		for _, se := range staged {
			src := engines[1+rng.Intn(sources)]
			src.staged[0] = append(src.staged[0], se)
		}
		g.merge()
		if g.Pending() != events {
			t.Fatalf("trial %d: %d events pending after merge, want %d", trial, g.Pending(), events)
		}
		fired = fired[:0]
		engines[0].Run(vtime.ModelInfinity)
		if !reflect.DeepEqual(fired, want) {
			t.Fatalf("trial %d: fired %v, want ascending (time, order key)", trial, fired)
		}
	}
}
