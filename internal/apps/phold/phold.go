// Package phold implements a bounded PHOLD synthetic workload: the standard
// Time Warp stress benchmark (Fujimoto). Each object starts Population
// events; every processed event consumes one unit of the object's hop
// budget and forwards a new event to a random object at an exponentially
// distributed future time, so the live event population stays constant
// until budgets drain and the run terminates.
//
// PHOLD is not in the paper's evaluation — RAID and POLICE are — but it is
// the conventional quickstart/calibration workload for PDES engines, and
// the test suite uses it because its behaviour is easy to reason about.
package phold

import (
	"fmt"

	"nicwarp/internal/rng"
	"nicwarp/internal/timewarp"
	"nicwarp/internal/vtime"
)

// Params configures the workload.
type Params struct {
	// Objects is the total object count across the cluster.
	Objects int
	// Population is the number of initial events per object.
	Population int
	// Hops is the per-object send budget; the run terminates when all
	// budgets drain.
	Hops int
	// MeanDelay is the mean of the exponential timestamp increment.
	MeanDelay float64
	// Locality is the probability that a forwarded event targets an object
	// on the sender's own LP (0 = always remote-biased uniform).
	Locality float64
}

// Validate checks the parameters.
func (p Params) Validate() error {
	if p.Objects < 1 {
		return fmt.Errorf("phold: need at least one object")
	}
	if p.Population < 0 || p.Hops < 0 {
		return fmt.Errorf("phold: negative population or hops")
	}
	if p.MeanDelay <= 0 {
		return fmt.Errorf("phold: mean delay must be positive")
	}
	if p.Locality < 0 || p.Locality > 1 {
		return fmt.Errorf("phold: locality must be in [0,1]")
	}
	return nil
}

// App builds PHOLD clusters. It implements core.App (expressed structurally
// to avoid an import cycle).
type App struct {
	Params Params
}

// New returns an App with the given parameters.
func New(p Params) *App {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return &App{Params: p}
}

// Name implements core.App.
func (a *App) Name() string { return "phold" }

// Build implements core.App.
func (a *App) Build(numLPs int, seed uint64) (map[timewarp.ObjectID]timewarp.Object, func(timewarp.ObjectID) int) {
	p := a.Params
	objs := make(map[timewarp.ObjectID]timewarp.Object, p.Objects)
	for i := 0; i < p.Objects; i++ {
		id := timewarp.ObjectID(i)
		objs[id] = &object{
			id:     id,
			numLPs: numLPs,
			p:      p,
			st: state{
				budget: p.Hops,
				rnd:    rng.NewFor(seed, uint64(i)),
			},
		}
	}
	place := func(id timewarp.ObjectID) int { return int(id) % numLPs }
	return objs, place
}

// state is the rolled-back object state.
type state struct {
	processed uint64
	acc       uint64
	budget    int
	rnd       rng.Source
}

// object is one PHOLD entity.
type object struct {
	id     timewarp.ObjectID
	numLPs int
	p      Params
	st     state
	snaps  timewarp.Snapshots[state]
}

// Init implements timewarp.Object.
func (o *object) Init(ctx *timewarp.Context) {
	for k := 0; k < o.p.Population; k++ {
		delay := vtime.VTime(o.st.rnd.ExpInt64(o.p.MeanDelay))
		ctx.Send(o.id, delay, o.st.rnd.Uint64())
	}
}

// Execute implements timewarp.Object.
func (o *object) Execute(ctx *timewarp.Context, ev *timewarp.Event) {
	o.st.processed++
	o.st.acc = timewarp.DigestMix(o.st.acc, ev.Payload^uint64(ev.RecvTS))
	if o.st.budget <= 0 {
		return
	}
	o.st.budget--
	dst := o.pick()
	delay := vtime.VTime(o.st.rnd.ExpInt64(o.p.MeanDelay))
	ctx.Send(dst, delay, o.st.rnd.Uint64())
}

// pick chooses the next destination: usually a uniform-random object, with
// probability Locality one co-located with the sender.
func (o *object) pick() timewarp.ObjectID {
	if o.p.Locality > 0 && o.st.rnd.Bool(o.p.Locality) {
		// Same-LP neighbours are the IDs congruent to ours mod numLPs.
		myLP := int(o.id) % o.numLPs
		perLP := (o.p.Objects + o.numLPs - 1 - myLP) / o.numLPs
		if perLP > 0 {
			k := o.st.rnd.Intn(perLP)
			return timewarp.ObjectID(myLP + k*o.numLPs)
		}
	}
	return timewarp.ObjectID(o.st.rnd.Intn(o.p.Objects))
}

// SaveState implements timewarp.Object.
func (o *object) SaveState() interface{} { return o.snaps.Save(&o.st) }

// ReleaseState implements timewarp.StateReuser.
func (o *object) ReleaseState(v interface{}) { o.snaps.Release(v) }

// RestoreState implements timewarp.Object.
func (o *object) RestoreState(s interface{}) { o.st = *s.(*state) }

// Digest implements timewarp.Object.
func (o *object) Digest() uint64 {
	h := o.st.acc
	h = timewarp.DigestMix(h, o.st.processed)
	h = timewarp.DigestMix(h, uint64(o.st.budget))
	h = timewarp.DigestMix(h, o.st.rnd.State())
	return h
}
