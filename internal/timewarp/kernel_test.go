package timewarp

import (
	"testing"
	"unsafe"

	"nicwarp/internal/rng"
	"nicwarp/internal/vtime"
)

// testState is the mutable state of testObj; it is copied wholesale by
// SaveState, which also checkpoints the embedded RNG (value semantics).
type testState struct {
	count  uint64
	acc    uint64
	budget int
	rnd    rng.Source
}

// testObj is a generic workload object: on each event it folds the payload
// into an accumulator and, while it has budget, sends a new event to a
// random peer at a random future time.
type testObj struct {
	id      ObjectID
	peers   []ObjectID
	starter bool
	fanout  int
	st      testState
}

func newTestObj(id ObjectID, peers []ObjectID, starter bool, budget int, seed uint64) *testObj {
	return &testObj{
		id:      id,
		peers:   peers,
		starter: starter,
		fanout:  1,
		st:      testState{budget: budget, rnd: rng.NewFor(seed, uint64(id))},
	}
}

func (o *testObj) Init(ctx *Context) {
	if o.starter {
		ctx.Send(o.id, 1, 0)
	}
}

func (o *testObj) Execute(ctx *Context, ev *Event) {
	o.st.count++
	o.st.acc = DigestMix(o.st.acc, ev.Payload+uint64(ev.RecvTS))
	for i := 0; i < o.fanout && o.st.budget > 0; i++ {
		o.st.budget--
		dst := o.peers[o.st.rnd.Intn(len(o.peers))]
		delay := vtime.VTime(o.st.rnd.UniformInt64(1, 10))
		ctx.Send(dst, delay, o.st.rnd.Uint64())
	}
}

func (o *testObj) SaveState() interface{}     { return o.st }
func (o *testObj) RestoreState(s interface{}) { o.st = s.(testState) }
func (o *testObj) Digest() uint64 {
	h := o.st.acc
	h = DigestMix(h, o.st.count)
	h = DigestMix(h, uint64(o.st.budget))
	h = DigestMix(h, o.st.rnd.State())
	return h
}

// buildObjs constructs nObj fully connected test objects with the given
// per-object send budget.
func buildObjs(nObj, budget int, seed uint64) map[ObjectID]Object {
	peers := make([]ObjectID, nObj)
	for i := range peers {
		peers[i] = ObjectID(i)
	}
	objs := make(map[ObjectID]Object, nObj)
	for i := 0; i < nObj; i++ {
		// Every object starts one event so the live event population is
		// nObj, enough concurrency for stragglers to occur under
		// adversarial delivery orders.
		objs[ObjectID(i)] = newTestObj(ObjectID(i), peers, true, budget, seed)
	}
	return objs
}

func TestSingleObjectChain(t *testing.T) {
	objs := map[ObjectID]Object{
		0: newTestObj(0, []ObjectID{0}, true, 9, 1),
	}
	k := NewKernel(Config{})
	k.AddObject(0, objs[0])
	k.Bootstrap()
	steps := 0
	for k.HasWork() {
		before := k.Stats.Processed.Value()
		res := k.ProcessOne()
		if k.Stats.Processed.Value()-before != 1 {
			t.Fatal("ProcessOne must execute exactly one event")
		}
		if len(res.Remote) != 0 {
			t.Fatalf("unexpected remote sends: %v", res.Remote)
		}
		steps++
	}
	// Init event + 9 budget-driven events.
	if steps != 10 {
		t.Fatalf("steps = %d, want 10", steps)
	}
	if k.Stats.Rollbacks.Value() != 0 {
		t.Fatal("sequential chain must not roll back")
	}
	if !k.Quiescent() {
		t.Fatal("kernel should be quiescent")
	}
}

func TestLocalMultiObjectMatchesOracle(t *testing.T) {
	ref := Sequential(buildObjs(4, 30, 7), 100000)
	got := Sequential(buildObjs(4, 30, 7), 100000)
	if ref.Digest != got.Digest || ref.TotalEvents != got.TotalEvents {
		t.Fatal("oracle is not deterministic")
	}
	// Each processed event consumes at most one unit of budget; the four
	// initial events plus the consumed budget bound the total.
	if ref.TotalEvents < 4 || ref.TotalEvents > 4+4*30 {
		t.Fatalf("oracle events = %d, outside [4, %d]", ref.TotalEvents, 4+4*30)
	}
}

func TestNextTSAndLVT(t *testing.T) {
	k := NewKernel(Config{})
	k.AddObject(0, newTestObj(0, []ObjectID{0}, false, 0, 1))
	k.Bootstrap()
	if k.NextTS() != vtime.Infinity {
		t.Fatal("idle kernel must report infinite LVT")
	}
	k.Deliver(&Event{ID: 1, Src: 99, Dst: 0, SendTS: 3, RecvTS: 5, Sign: 1})
	if k.NextTS() != 5 {
		t.Fatalf("NextTS = %v, want 5", k.NextTS())
	}
	if !k.HasWork() {
		t.Fatal("HasWork after Deliver")
	}
}

func TestDeliverToUnknownObjectPanics(t *testing.T) {
	k := NewKernel(Config{})
	k.AddObject(0, newTestObj(0, []ObjectID{0}, false, 0, 1))
	k.Bootstrap()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	k.Deliver(&Event{Dst: 42, Sign: 1, RecvTS: 1})
}

// TestEventIs56Bytes: Sign sits beside pos, not before Payload, where it
// left seven bytes of padding; every event slab is sized by this.
func TestEventIs56Bytes(t *testing.T) {
	if size := unsafe.Sizeof(Event{}); size != 56 {
		t.Fatalf("Event is %d bytes, want 56", size)
	}
}

// TestHistEntryIs32Bytes: an entry is its event and the snapshot taken
// before it, with the event's own inext heading its output chain. With the
// chain head in a field of its own it was 40 bytes, and every object's
// runtime, which carries its history's first eight entries, 576.
func TestHistEntryIs32Bytes(t *testing.T) {
	if size := unsafe.Sizeof(histEntry{}); size != 32 {
		t.Fatalf("histEntry is %d bytes, want 32", size)
	}
	if size := unsafe.Sizeof(objRuntime{}); size != 512 {
		t.Fatalf("objRuntime is %d bytes, want 512", size)
	}
}

// TestDirectoryEdges: an object is local to the kernel that registered it
// and to no other sharing the directory, and an id that is negative or past
// the directory's end is local nowhere — the remote sink a test object
// sends to is ObjectID(-1).
func TestDirectoryEdges(t *testing.T) {
	rows := NewRows([]int{1, 1}, []ObjectID{0, 3})
	var k0, k1 Kernel
	k0.Init(Config{LP: 0}, rows, nil)
	k1.Init(Config{LP: 1}, rows, nil)
	k0.AddObject(0, newTestObj(0, nil, false, 0, 1))
	k1.AddObject(3, newTestObj(3, nil, false, 0, 1))
	for _, c := range []struct {
		k     *Kernel
		id    ObjectID
		local bool
	}{
		{&k0, 0, true}, {&k1, 0, false}, {&k0, 3, false}, {&k1, 3, true},
		{&k0, 1, false}, {&k0, -1, false}, {&k1, -1, false}, {&k0, 4, false}, {&k1, 1 << 30, false},
	} {
		if got := c.k.IsLocal(c.id); got != c.local {
			t.Errorf("LP %d: IsLocal(%d) = %v, want %v", c.k.lp, c.id, got, c.local)
		}
	}
	if rows.Dir.Home(3) != 1 || rows.Dir.Home(2) != -1 || rows.Dir.Home(-5) != -1 {
		t.Errorf("directory homes 3→%d, 2→%d, -5→%d; want 1, -1, -1", rows.Dir.Home(3), rows.Dir.Home(2), rows.Dir.Home(-5))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a kernel took LP 0's rows after LP 1's")
		}
	}()
	var late Kernel
	late.Init(Config{LP: 0}, rows, nil)
}

func TestStragglerTriggersRollback(t *testing.T) {
	k := NewKernel(Config{})
	k.AddObject(0, newTestObj(0, []ObjectID{0}, false, 0, 1))
	k.Bootstrap()
	// Process events at t=10 and t=20, then a straggler at t=5.
	k.Deliver(&Event{ID: 1, Src: 99, Dst: 0, SendTS: 9, RecvTS: 10, Sign: 1})
	k.ProcessOne()
	k.Deliver(&Event{ID: 2, Src: 99, Dst: 0, SendTS: 19, RecvTS: 20, Sign: 1})
	k.ProcessOne()
	res := k.Deliver(&Event{ID: 3, Src: 99, Dst: 0, SendTS: 4, RecvTS: 5, Sign: 1})
	if res.Rollbacks != 1 {
		t.Fatalf("rollbacks = %d, want 1", res.Rollbacks)
	}
	if res.UndoneEvents != 2 {
		t.Fatalf("undone = %d, want 2", res.UndoneEvents)
	}
	if k.Stats.Stragglers.Value() != 1 {
		t.Fatal("straggler not counted")
	}
	// All three events pending again, straggler first.
	if k.NextTS() != 5 {
		t.Fatalf("NextTS = %v, want 5", k.NextTS())
	}
	for i := 0; i < 3; i++ {
		k.ProcessOne()
	}
	if k.HasWork() {
		t.Fatal("kernel should be idle")
	}
}

func TestRollbackRestoresStateAndRNG(t *testing.T) {
	// Run the same input sequence twice: once cleanly, once with a
	// straggler forcing a rollback in the middle. Final digests must match.
	run := func(withStraggler bool) uint64 {
		k := NewKernel(Config{})
		obj := newTestObj(0, []ObjectID{0}, false, 50, 3)
		k.AddObject(0, obj)
		k.Bootstrap()
		k.Deliver(&Event{ID: 1, Src: 99, Dst: 0, SendTS: 99, RecvTS: 100, Sign: 1})
		if !withStraggler {
			// Deliver the early event up front.
			k.Deliver(&Event{ID: 2, Src: 99, Dst: 0, SendTS: 1, RecvTS: 2, Sign: 1})
		}
		k.ProcessOne() // processes t=2 or t=100
		if withStraggler {
			k.Deliver(&Event{ID: 2, Src: 99, Dst: 0, SendTS: 1, RecvTS: 2, Sign: 1})
		}
		for k.HasWork() {
			k.ProcessOne()
		}
		return k.CommittedDigest()
	}
	clean := run(false)
	rolled := run(true)
	if clean != rolled {
		t.Fatalf("digest after rollback %x != clean digest %x", rolled, clean)
	}
}

func TestAntiAnnihilatesUnprocessed(t *testing.T) {
	k := NewKernel(Config{})
	k.AddObject(0, newTestObj(0, []ObjectID{0}, false, 0, 1))
	k.Bootstrap()
	pos := &Event{ID: 7, Src: 99, Dst: 0, SendTS: 9, RecvTS: 10, Sign: 1, Payload: 5}
	k.Deliver(pos)
	anti := *pos
	anti.Sign = -1
	k.Deliver(&anti)
	if k.Stats.Annihilations.Value() != 1 {
		t.Fatal("anti did not annihilate")
	}
	if k.HasWork() {
		t.Fatal("event should be gone")
	}
}

func TestAntiRollsBackProcessed(t *testing.T) {
	k := NewKernel(Config{})
	k.AddObject(0, newTestObj(0, []ObjectID{0}, false, 0, 1))
	k.Bootstrap()
	pos := &Event{ID: 7, Src: 99, Dst: 0, SendTS: 9, RecvTS: 10, Sign: 1}
	k.Deliver(pos)
	k.ProcessOne()
	later := &Event{ID: 8, Src: 99, Dst: 0, SendTS: 19, RecvTS: 20, Sign: 1}
	k.Deliver(later)
	k.ProcessOne()
	anti := *pos
	anti.Sign = -1
	res := k.Deliver(&anti)
	if k.Stats.Annihilations.Value() != 1 {
		t.Fatal("anti did not annihilate processed positive")
	}
	if res.Rollbacks != 1 || res.UndoneEvents != 2 {
		t.Fatalf("rollbacks=%d undone=%d", res.Rollbacks, res.UndoneEvents)
	}
	// Only the later event remains pending.
	if k.NextTS() != 20 {
		t.Fatalf("NextTS = %v, want 20", k.NextTS())
	}
	k.ProcessOne()
	if counts := k.ProcessedCounts(); counts[0] != 1 {
		t.Fatalf("committed = %d, want 1", counts[0])
	}
}

func TestAntiBeforePositiveZombie(t *testing.T) {
	k := NewKernel(Config{})
	k.AddObject(0, newTestObj(0, []ObjectID{0}, false, 0, 1))
	k.Bootstrap()
	pos := &Event{ID: 7, Src: 99, Dst: 0, SendTS: 9, RecvTS: 10, Sign: 1}
	anti := *pos
	anti.Sign = -1
	k.Deliver(&anti)
	if k.Stats.Annihilations.Value() != 0 {
		t.Fatal("nothing to annihilate yet")
	}
	if k.Stats.Zombies.Value() != 1 {
		t.Fatal("zombie not stored")
	}
	k.Deliver(pos)
	if k.Stats.Annihilations.Value() != 1 {
		t.Fatal("positive must annihilate against the zombie")
	}
	if k.HasWork() {
		t.Fatal("event should never become pending")
	}
	if !k.Quiescent() {
		t.Fatal("zombie list should be empty")
	}
}

func TestZombieMatchRequiresFullIdentity(t *testing.T) {
	k := NewKernel(Config{})
	k.AddObject(0, newTestObj(0, []ObjectID{0}, false, 0, 1))
	k.Bootstrap()
	anti := &Event{ID: 7, Src: 99, Dst: 0, SendTS: 9, RecvTS: 10, Sign: -1, Payload: 1}
	k.Deliver(anti)
	// Same ID but different payload: a distinct message instance.
	pos := &Event{ID: 7, Src: 99, Dst: 0, SendTS: 9, RecvTS: 10, Sign: 1, Payload: 2}
	k.Deliver(pos)
	if k.Stats.Annihilations.Value() != 0 {
		t.Fatal("must not annihilate a different instance")
	}
	if !k.HasWork() {
		t.Fatal("positive should be pending")
	}
}

func TestFossilCollect(t *testing.T) {
	k := NewKernel(Config{})
	k.AddObject(0, newTestObj(0, []ObjectID{0}, true, 20, 5))
	k.Bootstrap()
	for i := 0; i < 10; i++ {
		k.ProcessOne()
	}
	k.FossilCollect(k.NextTS())
	reclaimed := k.Stats.FossilEvents.Value()
	if reclaimed == 0 {
		t.Fatal("nothing reclaimed")
	}
	// Counts must still include fossilled history.
	if got := k.ProcessedCounts()[0]; got != 10 {
		t.Fatalf("processed count = %d, want 10", got)
	}
	for k.HasWork() {
		k.ProcessOne()
	}
	if got := k.CommittedEvents(); got != 21 {
		t.Fatalf("committed = %d, want 21", got)
	}
}

func TestFossilCollectThenRollbackAboveGVT(t *testing.T) {
	k := NewKernel(Config{})
	k.AddObject(0, newTestObj(0, []ObjectID{0}, false, 0, 1))
	k.Bootstrap()
	for i := 1; i <= 5; i++ {
		k.Deliver(&Event{ID: uint64(i), Src: 99, Dst: 0, SendTS: vtime.VTime(i*10 - 1), RecvTS: vtime.VTime(i * 10), Sign: 1})
	}
	for k.HasWork() {
		k.ProcessOne()
	}
	k.FossilCollect(25) // keeps history from t=30 on
	// Straggler at t=27 (>= GVT) must still be recoverable.
	res := k.Deliver(&Event{ID: 9, Src: 99, Dst: 0, SendTS: 26, RecvTS: 27, Sign: 1})
	if res.Rollbacks != 1 || res.UndoneEvents != 3 {
		t.Fatalf("rollbacks=%d undone=%d, want 1/3", res.Rollbacks, res.UndoneEvents)
	}
	for k.HasWork() {
		k.ProcessOne()
	}
	if got := k.CommittedEvents(); got != 6 {
		t.Fatalf("committed = %d, want 6", got)
	}
}

func TestDoubleBootstrapPanics(t *testing.T) {
	k := NewKernel(Config{})
	k.AddObject(0, newTestObj(0, []ObjectID{0}, false, 0, 1))
	k.Bootstrap()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	k.Bootstrap()
}

func TestAddObjectValidation(t *testing.T) {
	k := NewKernel(Config{})
	k.AddObject(0, newTestObj(0, nil, false, 0, 1))
	for _, f := range []func(){
		func() { k.AddObject(0, newTestObj(0, nil, false, 0, 1)) },   // dup
		func() { k.AddObject(1, nil) },                               // nil
		func() { k.AddObject(-1, newTestObj(-1, nil, false, 0, 1)) }, // no directory entry
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
	k.Bootstrap()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic after bootstrap")
			}
		}()
		k.AddObject(2, newTestObj(2, nil, false, 0, 1))
	}()
}

func TestProcessOneOnIdlePanics(t *testing.T) {
	k := NewKernel(Config{})
	k.AddObject(0, newTestObj(0, []ObjectID{0}, false, 0, 1))
	k.Bootstrap()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	k.ProcessOne()
}

func TestSendDelayValidation(t *testing.T) {
	k := NewKernel(Config{})
	obj := &badSender{}
	k.AddObject(0, obj)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero delay")
		}
	}()
	k.Bootstrap()
}

type badSender struct{}

func (b *badSender) Init(ctx *Context)        { ctx.Send(0, 0, 0) }
func (b *badSender) Execute(*Context, *Event) {}
func (b *badSender) SaveState() interface{}   { return nil }
func (b *badSender) RestoreState(interface{}) {}
func (b *badSender) Digest() uint64           { return 0 }

func TestHistoryEventsCounter(t *testing.T) {
	k := NewKernel(Config{})
	k.AddObject(0, newTestObj(0, []ObjectID{0}, true, 10, 1))
	k.Bootstrap()
	if k.HistoryEvents() != 0 {
		t.Fatal("fresh kernel has history")
	}
	for i := 0; i < 5; i++ {
		k.ProcessOne()
	}
	if k.HistoryEvents() != 5 {
		t.Fatalf("history = %d, want 5", k.HistoryEvents())
	}
	// Fossil collection reclaims history.
	k.FossilCollect(k.NextTS())
	if k.HistoryEvents() >= 5 {
		t.Fatalf("history = %d after fossil, want < 5", k.HistoryEvents())
	}
	// A rollback shrinks history too.
	k2 := NewKernel(Config{})
	k2.AddObject(0, newTestObj(0, []ObjectID{0}, false, 0, 1))
	k2.Bootstrap()
	k2.Deliver(&Event{ID: 1, Src: 9, Dst: 0, SendTS: 9, RecvTS: 10, Sign: 1})
	k2.ProcessOne()
	k2.Deliver(&Event{ID: 2, Src: 9, Dst: 0, SendTS: 19, RecvTS: 20, Sign: 1})
	k2.ProcessOne()
	if k2.HistoryEvents() != 2 {
		t.Fatalf("history = %d", k2.HistoryEvents())
	}
	k2.Deliver(&Event{ID: 3, Src: 9, Dst: 0, SendTS: 4, RecvTS: 5, Sign: 1})
	if k2.HistoryEvents() != 0 {
		t.Fatalf("history = %d after full rollback, want 0", k2.HistoryEvents())
	}
}

func TestDeliveryBelowGVTPanics(t *testing.T) {
	k := NewKernel(Config{})
	k.AddObject(0, newTestObj(0, []ObjectID{0}, false, 0, 1))
	k.Bootstrap()
	k.Deliver(&Event{ID: 1, Src: 9, Dst: 0, SendTS: 9, RecvTS: 10, Sign: 1})
	k.ProcessOne()
	k.FossilCollect(50)
	if k.committedGVT != 50 {
		t.Fatalf("committed GVT = %v", k.committedGVT)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for event below GVT")
		}
	}()
	k.Deliver(&Event{ID: 2, Src: 9, Dst: 0, SendTS: 39, RecvTS: 40, Sign: 1})
}

func TestGVTMovingBackwardsPanics(t *testing.T) {
	k := NewKernel(Config{})
	k.AddObject(0, newTestObj(0, []ObjectID{0}, false, 0, 1))
	k.Bootstrap()
	k.FossilCollect(100)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	k.FossilCollect(50)
}

func TestZombieBelowGVTPanics(t *testing.T) {
	k := NewKernel(Config{})
	k.AddObject(0, newTestObj(0, []ObjectID{0}, false, 0, 1))
	k.Bootstrap()
	// A zombie anti whose positive never arrives.
	k.Deliver(&Event{ID: 7, Src: 9, Dst: 0, SendTS: 9, RecvTS: 10, Sign: -1})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zombie below GVT")
		}
	}()
	k.FossilCollect(20)
}
