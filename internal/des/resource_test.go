package des

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"nicwarp/internal/stats"
	"nicwarp/internal/vtime"
)

// InFlight returns the number of submitted-but-incomplete jobs.
func (r *Resource) InFlight() int { return r.done.Len() }

func TestResourceSerializes(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "cpu")
	var done []vtime.ModelTime
	r.SubmitArg(10, call, func() { done = append(done, e.Now()) })
	r.SubmitArg(10, call, func() { done = append(done, e.Now()) })
	r.SubmitArg(5, call, func() { done = append(done, e.Now()) })
	e.Run(vtime.ModelInfinity)
	want := []vtime.ModelTime{10, 20, 25}
	if len(done) != 3 {
		t.Fatalf("completions = %v", done)
	}
	for i, w := range want {
		if done[i] != w {
			t.Fatalf("completion %d at %v, want %v", i, done[i], w)
		}
	}
}

func TestResourceQueueingAfterIdle(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "bus")
	var second vtime.ModelTime
	r.SubmitArg(10, nil, nil)
	// Submit more work at t=50, after the resource went idle at t=10.
	atFunc(e, 50, func() {
		r.SubmitArg(10, call, func() { second = e.Now() })
	})
	e.Run(vtime.ModelInfinity)
	if second != 60 {
		t.Fatalf("second completion at %v, want 60 (no retroactive queueing)", second)
	}
}

func TestResourceZeroCost(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "wire")
	ran := false
	r.SubmitArg(0, call, func() { ran = true })
	e.Run(vtime.ModelInfinity)
	if !ran || e.Now() != 0 {
		t.Fatalf("zero-cost job: ran=%v now=%v", ran, e.Now())
	}
}

func TestResourceNegativeCostPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e := NewEngine()
	NewResource(e, "x").SubmitArg(-1, nil, nil)
}

func TestResourceMetrics(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "cpu")
	r.SubmitArg(30, nil, nil)
	r.SubmitArg(30, nil, nil)
	e.Run(vtime.ModelInfinity)
	if r.Jobs.Value() != 2 {
		t.Fatalf("jobs = %d", r.Jobs.Value())
	}
	if r.Busy.Total() != 60 {
		t.Fatalf("busy = %v", r.Busy.Total())
	}
	if got := r.UtilizationAt(e.Now()); got != 1.0 {
		t.Fatalf("utilization = %v, want 1.0", got)
	}
	if !r.Idle() {
		t.Fatal("resource should be idle after drain")
	}
}

// TestResourceQueueGauge: the queue depth a caller sees is InFlight, and a
// completion callback already sees its own job gone.
func TestResourceQueueGauge(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "cpu")
	var seen []int
	for i := 0; i < 5; i++ {
		r.SubmitArg(10, call, func() { seen = append(seen, r.InFlight()) })
	}
	if r.InFlight() != 5 {
		t.Fatalf("in flight = %d", r.InFlight())
	}
	e.Run(vtime.ModelInfinity)
	if fmt.Sprint(seen) != "[4 3 2 1 0]" || r.InFlight() != 0 {
		t.Fatalf("in flight at each completion = %v, after drain %d", seen, r.InFlight())
	}
}

// TestResourceConservation: total busy time equals the sum of submitted
// costs, and the final completion time is at least that sum (single server).
func TestResourceConservation(t *testing.T) {
	f := func(costs []uint8) bool {
		e := NewEngine()
		r := NewResource(e, "cpu")
		var sum vtime.ModelTime
		var last vtime.ModelTime
		for _, c := range costs {
			d := vtime.ModelTime(c)
			sum += d
			last = r.SubmitArg(d, nil, nil)
		}
		e.Run(vtime.ModelInfinity)
		return r.Busy.Total() == sum && last == sum && r.Jobs.Value() == int64(len(costs))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestResourceCompletionOrderFIFO(t *testing.T) {
	// Even when a cheap job is submitted behind an expensive one it must
	// complete after it: the server is strictly FIFO.
	e := NewEngine()
	r := NewResource(e, "nic")
	var order []string
	r.SubmitArg(100, call, func() { order = append(order, "big") })
	r.SubmitArg(1, call, func() { order = append(order, "small") })
	e.Run(vtime.ModelInfinity)
	if order[0] != "big" || order[1] != "small" {
		t.Fatalf("order = %v", order)
	}
}

func TestNewResourceNilEnginePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewResource(nil, "x")
}

// perJobResource is the Resource this package had before completions moved
// inside it, kept verbatim as the oracle: one engine event per queued job,
// scheduled at submit, with the callbacks in a FIFO ring beside it. The
// differential tests below drive it and Resource through identical seeded
// schedules on twin engines and demand the same observable behaviour.
type perJobResource struct {
	eng  *Engine
	name string

	busyUntil vtime.ModelTime
	inFlight  int

	doneQ    []perJobDone
	doneHead int

	Busy stats.BusyTime
	Jobs stats.Counter
}

type perJobDone struct {
	fnArg func(interface{})
	fn2   func(interface{}, interface{})
	arg   interface{}
	argB  interface{}
}

func (r *perJobResource) InFlight() int { return r.inFlight }

func (r *perJobResource) SubmitArg(cost vtime.ModelTime, fn func(interface{}), arg interface{}) vtime.ModelTime {
	return r.submit(cost, perJobDone{fnArg: fn, arg: arg})
}

func (r *perJobResource) SubmitArg2(cost vtime.ModelTime, fn func(interface{}, interface{}), a, b interface{}) vtime.ModelTime {
	return r.submit(cost, perJobDone{fn2: fn, arg: a, argB: b})
}

func (r *perJobResource) submit(cost vtime.ModelTime, done perJobDone) vtime.ModelTime {
	if cost < 0 {
		panic(fmt.Sprintf("des: Submit with negative cost on %s", r.name))
	}
	finish := vtime.MaxM(r.eng.Now(), r.busyUntil) + cost
	r.busyUntil = finish
	r.inFlight++
	r.Busy.AddInterval(cost)
	r.pushDone(done)
	r.eng.AtArg(finish, perJobComplete, r)
	return finish
}

func perJobComplete(x interface{}) {
	r := x.(*perJobResource)
	d := r.popDone()
	r.inFlight--
	r.Jobs.Inc()
	switch {
	case d.fn2 != nil:
		d.fn2(d.arg, d.argB)
	case d.fnArg != nil:
		d.fnArg(d.arg)
	}
}

func (r *perJobResource) pushDone(d perJobDone) {
	if len(r.doneQ) == cap(r.doneQ) && r.doneHead > 0 {
		n := copy(r.doneQ, r.doneQ[r.doneHead:])
		for i := n; i < len(r.doneQ); i++ {
			r.doneQ[i] = perJobDone{}
		}
		r.doneQ = r.doneQ[:n]
		r.doneHead = 0
	}
	r.doneQ = append(r.doneQ, d)
}

func (r *perJobResource) popDone() perJobDone {
	d := r.doneQ[r.doneHead]
	r.doneQ[r.doneHead] = perJobDone{}
	r.doneHead++
	if r.doneHead == len(r.doneQ) {
		r.doneQ = r.doneQ[:0]
		r.doneHead = 0
	}
	return d
}

// fifoServer is what the differential schedules need of either
// implementation.
type fifoServer interface {
	SubmitArg(cost vtime.ModelTime, fn func(interface{}), arg interface{}) vtime.ModelTime
	SubmitArg2(cost vtime.ModelTime, fn func(interface{}, interface{}), a, b interface{}) vtime.ModelTime
	InFlight() int
}

// serverMetrics reads the two metrics both implementations keep.
func serverMetrics(s fifoServer) [2]int64 {
	switch r := s.(type) {
	case *Resource:
		return [2]int64{int64(r.Busy.Total()), r.Jobs.Value()}
	case *perJobResource:
		return [2]int64{int64(r.Busy.Total()), r.Jobs.Value()}
	}
	panic("unknown server")
}

// fired is one observed completion or timer: when, on which lane, which job.
type fired struct {
	now  vtime.ModelTime
	lane uint32
	id   int
}

// schedRun is one seeded schedule being played against one implementation.
// Every decision comes from rng, and rng is consulted only from inside
// callbacks and the fixed boot sequence — so two runs draw the same numbers
// exactly as long as their callbacks fire in the same order, and the first
// divergence shows in the trace.
type schedRun struct {
	e        *Engine
	rng      *rand.Rand
	srv      [2]fifoServer
	lastLane [2]uint32 // lane of the newest job on each server
	trace    []fired
	jobs     int // submitted so far
	budget   int
	timers   []TimerRef
	inflight []int // InFlight seen from inside callbacks
	undercut int   // zero-cost submits from a lower lane onto a busy server
}

const schedLanes = 4

func (s *schedRun) record(id int) {
	s.trace = append(s.trace, fired{s.e.Now(), s.e.curLane, id})
}

// submit places one job, picking the SubmitArg flavour at random; its
// completion records itself and then acts.
func (s *schedRun) submit(which int, cost vtime.ModelTime) {
	if s.jobs >= s.budget {
		return
	}
	s.jobs++
	id := s.jobs
	srv := s.srv[which]
	if cost == 0 && srv.InFlight() > 0 && s.e.curLane < s.lastLane[which] {
		s.undercut++
	}
	s.lastLane[which] = s.e.curLane
	switch s.rng.Intn(2) {
	case 0:
		srv.SubmitArg(cost, func(x interface{}) { s.completed(which, x.(int)) }, id)
	default:
		srv.SubmitArg2(cost, func(a, b interface{}) { s.completed(a.(int), b.(int)) }, which, id)
	}
}

func (s *schedRun) cost() vtime.ModelTime {
	if s.rng.Intn(3) == 0 {
		return 0
	}
	return vtime.ModelTime(s.rng.Intn(20))
}

// act is the body shared by completions and driver timers: some mix of
// bursts, lane switches, zero-cost jobs, unrelated timers armed and
// cancelled, and jobs fed to the other server.
func (s *schedRun) act(which int) {
	for n := 1 + s.rng.Intn(3); n > 0; n-- {
		switch s.rng.Intn(7) {
		case 0: // burst onto (probably) a busy server
			for k := 1 + s.rng.Intn(5); k > 0; k-- {
				s.submit(which, s.cost())
			}
		case 1: // feed the other server
			s.submit(1-which, s.cost())
		case 2: // lane switch, possibly to a lower lane, then a zero-cost job
			s.e.SetLane(uint32(s.rng.Intn(schedLanes)))
			s.submit(which, 0)
		case 3: // lane switch alone
			s.e.SetLane(uint32(s.rng.Intn(schedLanes)))
		case 4: // arm an unrelated timer
			id := -1 - len(s.timers)
			s.timers = append(s.timers, s.e.AtArgRef(s.e.Now()+vtime.ModelTime(s.rng.Intn(30)),
				func(x interface{}) { s.record(x.(int)); s.act(s.rng.Intn(2)) }, id))
		case 5: // cancel an unrelated timer (fired or not) mid-callback
			if len(s.timers) > 0 {
				s.timers[s.rng.Intn(len(s.timers))].Cancel()
			}
		case 6: // a plain closure event
			atFunc(s.e, s.e.Now()+vtime.ModelTime(s.rng.Intn(10)), func() { s.submit(s.rng.Intn(2), s.cost()) })
		}
	}
}

func (s *schedRun) completed(which, id int) {
	s.record(id)
	s.inflight = append(s.inflight, s.srv[0].InFlight(), s.srv[1].InFlight())
	s.act(which)
}

// playSchedule runs one seeded schedule to quiescence against servers built
// by mk.
func playSchedule(seed int64, budget int, mk func(e *Engine, name string) fifoServer) *schedRun {
	e := NewEngine()
	s := &schedRun{e: e, rng: rand.New(rand.NewSource(seed)), budget: budget}
	s.srv[0], s.srv[1] = mk(e, "a"), mk(e, "b")
	for i := 0; i < 6; i++ {
		e.SetLane(uint32(s.rng.Intn(schedLanes)))
		s.submit(i%2, s.cost())
		atFunc(e, vtime.ModelTime(s.rng.Intn(50)), func() { s.act(s.rng.Intn(2)) })
	}
	// Drain in slices so a run that re-enters Run many times is covered too.
	for limit := vtime.ModelTime(25); e.heap.Len() > 0; limit += 25 {
		e.Run(limit)
	}
	return s
}

func newResourceServer(e *Engine, name string) fifoServer { return NewResource(e, name) }
func newPerJobServer(e *Engine, name string) fifoServer {
	return &perJobResource{eng: e, name: name}
}

// TestResourceMatchesPerJobOracle: a Resource with one armed event fires
// every completion exactly where per-job events would have — same instant,
// same lane, same position among unrelated events — on schedules that mix
// bursts, zero-cost jobs, lane switches (including to a lower lane at a tied
// finish), submits from inside completions, timers cancelled mid-callback
// and two servers feeding each other.
func TestResourceMatchesPerJobOracle(t *testing.T) {
	jobs, undercuts := 0, 0
	for seed := int64(1); seed <= 60; seed++ {
		got := playSchedule(seed, 400, newResourceServer)
		want := playSchedule(seed, 400, newPerJobServer)
		if len(got.trace) != len(want.trace) {
			t.Fatalf("seed %d: %d firings, oracle %d", seed, len(got.trace), len(want.trace))
		}
		for i := range want.trace {
			if got.trace[i] != want.trace[i] {
				t.Fatalf("seed %d: firing %d = %+v, oracle %+v", seed, i, got.trace[i], want.trace[i])
			}
		}
		if got.e.Processed() != want.e.Processed() || got.e.Now() != want.e.Now() {
			t.Fatalf("seed %d: processed/now = %d/%v, oracle %d/%v", seed,
				got.e.Processed(), got.e.Now(), want.e.Processed(), want.e.Now())
		}
		for i := range want.inflight {
			if got.inflight[i] != want.inflight[i] {
				t.Fatalf("seed %d: InFlight sample %d = %d, oracle %d", seed, i, got.inflight[i], want.inflight[i])
			}
		}
		for i := range want.srv {
			if g, w := serverMetrics(got.srv[i]), serverMetrics(want.srv[i]); g != w {
				t.Fatalf("seed %d server %d: busy/jobs = %v, oracle %v", seed, i, g, w)
			}
		}
		jobs += got.jobs
		undercuts += got.undercut
	}
	if jobs < 60*200 {
		t.Fatalf("schedules died out: %d jobs over 60 seeds", jobs)
	}
	if undercuts == 0 {
		t.Fatal("no schedule submitted a zero-cost job from a lower lane onto a busy server")
	}
	t.Logf("%d jobs, %d lower-lane zero-cost submits onto a busy server", jobs, undercuts)
}

// TestResourceLowerLaneTiedFinish pins the one case where a resource's keys
// are not in submission order: a zero-cost job from a lower lane ties with
// the finish time of the job ahead of it, so its key sorts first. The
// earlier key fires first and runs the older callback, on the newer job's
// lane — what two per-job events did.
func TestResourceLowerLaneTiedFinish(t *testing.T) {
	for _, mk := range []func(*Engine, string) fifoServer{newResourceServer, newPerJobServer} {
		e := NewEngine()
		r := mk(e, "r")
		var got []fired
		rec := func(x interface{}) { got = append(got, fired{e.Now(), e.curLane, x.(int)}) }
		e.SetLane(3)
		r.SubmitArg(10, rec, 1)
		e.SetLane(2)
		r.SubmitArg(0, rec, 2) // sorts before job 1's key, but behind it in line
		e.SetLane(1)
		r.SubmitArg(0, rec, 3) // undercuts both: the armed head must move
		e.SetLane(2)
		e.AtArg(10, rec, 99) // lane 2, drawn after job 2's key: fires between
		e.Run(vtime.ModelInfinity)
		want := []fired{{10, 1, 1}, {10, 2, 2}, {10, 2, 99}, {10, 3, 3}}
		if len(got) != len(want) {
			t.Fatalf("%T: fired %+v, want %+v", r, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%T: fired %+v, want %+v", r, got, want)
			}
		}
	}
}

// TestResourceArmsOneEvent: however deep the queue, a resource keeps one
// event on the engine, and Pending says so.
func TestResourceArmsOneEvent(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "r")
	for i := 0; i < 10; i++ {
		r.SubmitArg(5, nil, nil)
	}
	if e.heap.Len() != 1 || r.InFlight() != 10 {
		t.Fatalf("pending = %d, in flight = %d; want 1 and 10", e.heap.Len(), r.InFlight())
	}
	e.Run(vtime.ModelInfinity)
	if e.heap.Len() != 0 || r.InFlight() != 0 || e.Processed() != 10 {
		t.Fatalf("after drain: pending %d, in flight %d, processed %d", e.heap.Len(), r.InFlight(), e.Processed())
	}
}

// TestResourceBurstDoesNotAllocate: once the ring and the arena have seen
// the burst depth, submitting and draining a burst allocates nothing.
func TestResourceBurstDoesNotAllocate(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "r")
	n := 0
	tick := func(interface{}) { n++ }
	burst := func() {
		for i := 0; i < 8; i++ {
			r.SubmitArg(vtime.ModelTime(i%3), tick, nil)
		}
		e.Run(vtime.ModelInfinity)
	}
	burst()
	if allocs := testing.AllocsPerRun(100, burst); allocs > 0 {
		t.Fatalf("steady-state burst allocated %.1f times per run, want 0", allocs)
	}
	if n != 8*102 {
		t.Fatalf("completions = %d", n)
	}
}
