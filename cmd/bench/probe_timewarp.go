package main

import (
	"time"

	"nicwarp/internal/timewarp"
	"nicwarp/internal/vtime"
)

// The rig's virtual times are plain integers, converted to vtime.VTime where
// they enter the kernel: they stay far from vtime.Infinity.
const (
	twObjects = 64
	twPeriod  = 64 // virtual time between an object's events
	twFirst   = 10 // every object's first event
	// twExternal is the source of events the rig injects with Deliver: an
	// object id no kernel in the rig hosts.
	twExternal = timewarp.ObjectID(1 << 20)
	// twNoSend marks an injected event whose execution must not extend the
	// object's self-send chain.
	twNoSend = 1
)

// twObject is the rig's simulation object: it counts executions and, when
// chained, sends itself the next event one period later.
type twObject struct {
	count   uint64
	chained bool
}

func (o *twObject) Init(ctx *timewarp.Context) {
	if o.chained {
		ctx.Send(ctx.Self(), twFirst, 0)
	}
}

func (o *twObject) Execute(ctx *timewarp.Context, ev *timewarp.Event) {
	o.count++
	if o.chained && ev.Payload != twNoSend {
		ctx.Send(ctx.Self(), twPeriod, 0)
	}
}

func (o *twObject) SaveState() interface{}     { return o.count }
func (o *twObject) RestoreState(s interface{}) { o.count = s.(uint64) }
func (o *twObject) Digest() uint64             { return o.count }

func newTWKernel(chained bool) *timewarp.Kernel {
	k := timewarp.NewKernel(timewarp.Config{LP: 0})
	for i := 0; i < twObjects; i++ {
		k.AddObject(timewarp.ObjectID(i), &twObject{chained: chained})
	}
	k.Bootstrap()
	return k
}

// injected builds an external positive event for object dst at time at.
func injected(seq uint64, dst int, at int64, payload uint64) *timewarp.Event {
	return &timewarp.Event{
		ID:  timewarp.MakeEventID(twExternal, seq),
		Src: twExternal, Dst: timewarp.ObjectID(dst),
		SendTS: vtime.VTime(at - 1), RecvTS: vtime.VTime(at), Sign: 1, Payload: payload,
	}
}

// probeTimewarpForward times Kernel.ProcessOne on rollback-free chains (state
// save, execute, one local send) and, separately, FossilCollect per history
// entry it reclaims.
func probeTimewarpForward(seed uint64) []float64 {
	k := newTWKernel(true)
	const chunk = 4096
	var process, fossil time.Duration
	for done := 0; done < probeBatchOps; done += chunk {
		t0 := time.Now()
		for i := 0; i < chunk; i++ {
			k.ProcessOne()
		}
		t1 := time.Now()
		k.FossilCollect(k.NextTS())
		process += t1.Sub(t0)
		fossil += time.Since(t1)
	}
	ops := float64((probeBatchOps + chunk - 1) / chunk * chunk)
	return []float64{float64(process.Nanoseconds()) / ops, float64(fossil.Nanoseconds()) / ops}
}

// probeTimewarpAnnihilate times Deliver of an anti-message whose positive is
// still unprocessed in the destination's pending queue.
func probeTimewarpAnnihilate(seed uint64) float64 {
	k := newTWKernel(false)
	const chunk = 4096
	events := make([]*timewarp.Event, chunk)
	var seq uint64
	var total time.Duration
	for done := 0; done < probeBatchOps; done += chunk {
		for i := range events {
			seq++
			at := int64(1000 + splitmix64(&seed)%100000)
			events[i] = injected(seq, i%twObjects, at, 0)
			k.Deliver(events[i])
		}
		t0 := time.Now()
		for _, ev := range events {
			k.Deliver(ev.Anti())
		}
		total += time.Since(t0)
	}
	ops := float64((probeBatchOps + chunk - 1) / chunk * chunk)
	return float64(total.Nanoseconds()) / ops
}

// probeTimewarpRollback times straggler delivery: each round runs every
// chain twDepth events forward, then delivers one straggler per object just
// below that window, so the kernel restores state and cancels one local
// output for every undone event. The cost is per undone event.
func probeTimewarpRollback(seed uint64) float64 {
	k := newTWKernel(true)
	const twDepth = 64
	var seq uint64
	var total time.Duration
	undone := 0
	for round := 0; undone < probeBatchOps; round++ {
		first := int64(twFirst + round*twDepth*twPeriod)
		for k.NextTS() < vtime.VTime(first+twDepth*twPeriod) {
			k.ProcessOne()
		}
		k.FossilCollect(vtime.VTime(first - 1))
		t0 := time.Now()
		for obj := 0; obj < twObjects; obj++ {
			seq++
			undone += k.Deliver(injected(seq, obj, first-1, twNoSend)).UndoneEvents
		}
		total += time.Since(t0)
	}
	return float64(total.Nanoseconds()) / float64(undone)
}
