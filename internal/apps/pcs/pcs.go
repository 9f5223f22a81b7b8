// Package pcs implements a Personal Communication Services model — the
// classic cellular-network Time Warp benchmark (Carothers et al.) — as an
// extension workload beyond the paper's RAID and POLICE.
//
// A rectangular grid of cells each own a fixed number of radio channels.
// Portables place calls (occupying a channel until completion or blocking
// when none is free) and move between adjacent cells mid-call, handing the
// call off to the neighbour. Handoffs between cells on different LPs are
// the cross-LP traffic; their timing sensitivity (a handoff arriving out of
// order changes channel occupancy) produces rollbacks.
package pcs

import (
	"fmt"

	"nicwarp/internal/rng"
	"nicwarp/internal/timewarp"
	"nicwarp/internal/vtime"
)

// Event kinds, encoded in the payload's top byte.
const (
	evNextCall uint64 = iota + 1 // cell-local call arrival timer
	evComplete                   // a call on this cell ends
	evHandoff                    // a call arrives from a neighbouring cell
)

func payload(kind, duration uint64) uint64 { return kind<<56 | duration&0xFFFFFFFF }
func payloadKind(p uint64) uint64          { return p >> 56 }
func payloadDuration(p uint64) uint64      { return p & 0xFFFFFFFF }

// Params configures the PCS model.
type Params struct {
	// Width and Height shape the cell grid (Width*Height cells).
	Width, Height int
	// Channels is the per-cell channel capacity.
	Channels int
	// CallsPerCell bounds the workload.
	CallsPerCell int
	// InterArrivalMean is the mean time between call attempts in a cell.
	InterArrivalMean float64
	// HoldMean is the mean call duration.
	HoldMean float64
	// HandoffProb is the probability a call hands off to a neighbour
	// rather than completing in place.
	HandoffProb float64
}

// DefaultParams returns a medium grid.
func DefaultParams() Params {
	return Params{
		Width: 8, Height: 4,
		Channels:         8,
		CallsPerCell:     50,
		InterArrivalMean: 120,
		HoldMean:         180,
		HandoffProb:      0.35,
	}
}

// Validate checks the parameters.
func (p Params) Validate() error {
	if p.Width < 1 || p.Height < 1 {
		return fmt.Errorf("pcs: grid must be at least 1x1")
	}
	if p.Channels < 1 {
		return fmt.Errorf("pcs: need at least one channel per cell")
	}
	if p.CallsPerCell < 0 {
		return fmt.Errorf("pcs: negative call count")
	}
	if p.InterArrivalMean <= 0 || p.HoldMean <= 0 {
		return fmt.Errorf("pcs: means must be positive")
	}
	if p.HandoffProb < 0 || p.HandoffProb > 1 {
		return fmt.Errorf("pcs: handoff probability must be in [0,1]")
	}
	return nil
}

// App builds PCS clusters; it implements core.App structurally.
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
func (a *App) Name() string { return "pcs" }

// EventGrain implements core.Grained: PCS events are small channel-table
// updates.
func (a *App) EventGrain() vtime.ModelTime { return 6 * vtime.Microsecond }

// Build implements core.App. Cells are striped row-major across LPs, so
// vertical neighbours are usually remote.
func (a *App) Build(numLPs int, seed uint64) (map[timewarp.ObjectID]timewarp.Object, func(timewarp.ObjectID) int) {
	p := a.Params
	n := p.Width * p.Height
	objs := make(map[timewarp.ObjectID]timewarp.Object, n)
	for i := 0; i < n; i++ {
		objs[timewarp.ObjectID(i)] = &cell{
			id: timewarp.ObjectID(i), index: i, p: p,
			st: state{remaining: p.CallsPerCell, rnd: rng.NewFor(seed, uint64(i))},
		}
	}
	place := func(id timewarp.ObjectID) int { return int(id) % numLPs }
	return objs, place
}

// state is the rolled-back cell state.
type state struct {
	remaining int // call attempts left to generate
	busy      int // channels in use
	completed uint64
	blocked   uint64
	handoffs  uint64
	acc       uint64
	rnd       rng.Source
}

// cell is one PCS cell.
type cell struct {
	id    timewarp.ObjectID
	index int
	p     Params
	st    state
	snaps timewarp.Snapshots[state]
}

// neighbors returns the adjacent cell IDs (4-connected grid).
func (c *cell) neighbors() []timewarp.ObjectID {
	x, y := c.index%c.p.Width, c.index/c.p.Width
	var out []timewarp.ObjectID
	if x > 0 {
		out = append(out, timewarp.ObjectID(c.index-1))
	}
	if x < c.p.Width-1 {
		out = append(out, timewarp.ObjectID(c.index+1))
	}
	if y > 0 {
		out = append(out, timewarp.ObjectID(c.index-c.p.Width))
	}
	if y < c.p.Height-1 {
		out = append(out, timewarp.ObjectID(c.index+c.p.Width))
	}
	return out
}

// Init schedules the first call arrival.
func (c *cell) Init(ctx *timewarp.Context) {
	if c.st.remaining > 0 {
		delay := vtime.VTime(c.st.rnd.ExpInt64(c.p.InterArrivalMean))
		ctx.Send(c.id, delay, payload(evNextCall, 0))
	}
}

// Execute handles one event.
func (c *cell) Execute(ctx *timewarp.Context, ev *timewarp.Event) {
	c.st.acc = timewarp.DigestMix(c.st.acc, ev.Payload^uint64(ev.RecvTS))
	switch payloadKind(ev.Payload) {
	case evNextCall:
		c.st.remaining--
		c.admit(ctx, uint64(c.st.rnd.ExpInt64(c.p.HoldMean)))
		if c.st.remaining > 0 {
			delay := vtime.VTime(c.st.rnd.ExpInt64(c.p.InterArrivalMean))
			ctx.Send(c.id, delay, payload(evNextCall, 0))
		}
	case evHandoff:
		c.st.handoffs++
		c.admit(ctx, payloadDuration(ev.Payload))
	case evComplete:
		if c.st.busy <= 0 {
			panic(fmt.Sprintf("pcs: cell %d completion with no busy channel", c.index))
		}
		c.st.busy--
		c.st.completed++
	default:
		panic(fmt.Sprintf("pcs: cell %d got unexpected kind %d", c.index, payloadKind(ev.Payload)))
	}
}

// admit tries to place a call with the given remaining duration on this
// cell: it may block, complete here, or hand off to a neighbour partway
// through.
func (c *cell) admit(ctx *timewarp.Context, duration uint64) {
	if c.st.busy >= c.p.Channels {
		c.st.blocked++
		return
	}
	if duration < 1 {
		duration = 1
	}
	c.st.busy++
	if c.st.rnd.Bool(c.p.HandoffProb) && duration > 2 {
		// The portable moves partway through the call: release here at the
		// handoff instant and continue in the neighbour.
		cut := uint64(c.st.rnd.Int63n(int64(duration-1))) + 1
		nbrs := c.neighbors()
		dst := nbrs[c.st.rnd.Intn(len(nbrs))]
		ctx.Send(c.id, vtime.VTime(cut), payload(evComplete, 0))
		ctx.Send(dst, vtime.VTime(cut), payload(evHandoff, duration-cut))
		return
	}
	ctx.Send(c.id, vtime.VTime(duration), payload(evComplete, 0))
}

// SaveState implements timewarp.Object.
func (c *cell) SaveState() interface{} { return c.snaps.Save(&c.st) }

// ReleaseState implements timewarp.StateReuser.
func (c *cell) ReleaseState(v interface{}) { c.snaps.Release(v) }

// RestoreState implements timewarp.Object.
func (c *cell) RestoreState(v interface{}) { c.st = *v.(*state) }

// Digest implements timewarp.Object.
func (c *cell) Digest() uint64 {
	h := c.st.acc
	h = timewarp.DigestMix(h, c.st.completed)
	h = timewarp.DigestMix(h, c.st.blocked)
	h = timewarp.DigestMix(h, c.st.handoffs)
	h = timewarp.DigestMix(h, uint64(c.st.busy))
	h = timewarp.DigestMix(h, uint64(c.st.remaining))
	h = timewarp.DigestMix(h, c.st.rnd.State())
	return h
}
