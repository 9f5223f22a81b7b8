// Package police implements the paper's POLICE application: "a simple model
// of a traffic police telecommunications network", swept from 900 to 4000
// police stations over 8 LPs in the paper's Figures 5, 7 and 8.
//
// The model is a dispatch telecommunications network: stations raise
// incident reports toward their regional switching centre; the centre
// queries a burst of nearby stations for an available patrol unit, collects
// the replies, assigns the incident, and receives a completion; centres
// occasionally exchange summaries. The centre's query burst is the
// behavioural signature that matters for the paper's results: bursts of
// closely timestamped cross-LP messages produce both a high rollback rate
// and transmit-queue backlogs on the NIC — which is why POLICE shows far
// higher in-place cancellation rates than the pipelined RAID model
// (Figure 7b vs Figure 6).
package police

import (
	"fmt"

	"nicwarp/internal/rng"
	"nicwarp/internal/timewarp"
	"nicwarp/internal/vtime"
)

// Message kinds, encoded in the top byte of the payload.
const (
	msgIncident uint64 = iota + 1 // station self-timer: an incident occurs
	msgReport                     // station -> centre: incident report
	msgQuery                      // centre -> station: unit availability query
	msgAvail                      // station -> centre: unit available
	msgBusy                       // station -> centre: unit busy
	msgAssign                     // centre -> station: dispatch assignment
	msgComplete                   // station -> centre: incident resolved
	msgSummary                    // centre -> centre: periodic summary
)

// payload packs (kind, incident id, subject station).
func payload(kind uint64, incident uint32, station uint32) uint64 {
	return kind<<56 | uint64(incident)<<24 | uint64(station)
}

func payloadKind(p uint64) uint64     { return p >> 56 }
func payloadIncident(p uint64) uint32 { return uint32(p >> 24 & 0xFFFFFFFF) }
func payloadStation(p uint64) uint32  { return uint32(p & 0xFFFFFF) }

// Params configures the POLICE model.
type Params struct {
	// Stations is the number of police stations (the paper sweeps
	// 900–4000).
	Stations int
	// Centres is the number of switching centres (one per LP in the
	// paper's 8-LP runs).
	Centres int
	// IncidentsPerStation bounds the workload; the run terminates when all
	// incidents are resolved.
	IncidentsPerStation int
	// QueryFanout is the size of the centre's availability-query burst.
	QueryFanout int
	// IncidentMean is the mean inter-incident time at a station.
	IncidentMean float64
	// BusyFraction is the approximate probability a queried station is
	// busy.
	BusyFraction float64
	// SummaryFraction is the probability a completed incident is
	// summarized to a neighbouring centre.
	SummaryFraction float64
}

// DefaultConfig returns the paper-scale model for the given station count.
// The incident interarrival mean scales with the station count so the
// aggregate message rate per unit of virtual time stays constant across the
// paper's 900–4000 station sweep: a city with more stations covers more
// territory, not proportionally more incidents per station per hour. (A
// fixed mean would make virtual-time traffic density grow linearly with
// stations and push the optimistic simulation into supercritical rollback
// thrashing at the top of the sweep.)
func DefaultConfig(stations int) Params {
	return Params{
		Stations:            stations,
		Centres:             8,
		IncidentsPerStation: 5,
		QueryFanout:         3,
		IncidentMean:        7.5 * float64(stations),
		BusyFraction:        0.3,
		SummaryFraction:     0.15,
	}
}

// Validate checks the parameters.
func (p Params) Validate() error {
	if p.Stations < 1 {
		return fmt.Errorf("police: need at least one station")
	}
	if p.Centres < 1 {
		return fmt.Errorf("police: need at least one centre")
	}
	if p.Stations > 0xFFFFFF {
		return fmt.Errorf("police: station count exceeds payload encoding")
	}
	if p.IncidentsPerStation < 0 {
		return fmt.Errorf("police: negative incident count")
	}
	if p.QueryFanout < 1 || p.QueryFanout > 255 {
		return fmt.Errorf("police: query fanout must be in [1,255]: an incident counts its replies in a uint8")
	}
	if p.IncidentMean <= 0 {
		return fmt.Errorf("police: incident mean must be positive")
	}
	if p.BusyFraction < 0 || p.BusyFraction > 1 || p.SummaryFraction < 0 || p.SummaryFraction > 1 {
		return fmt.Errorf("police: fractions must be in [0,1]")
	}
	return nil
}

// Object ID layout: centres first (0..Centres-1), then stations.
func (p Params) centreID(i int) timewarp.ObjectID  { return timewarp.ObjectID(i) }
func (p Params) stationID(i int) timewarp.ObjectID { return timewarp.ObjectID(p.Centres + i) }

// centreOf returns the centre responsible for station i. The offset by one
// ensures station-centre traffic generally crosses LPs under the standard
// placement, as cluster partitioning of a real deployment would.
func (p Params) centreOf(station int) int { return (station + 1) % p.Centres }

// App builds POLICE clusters; it implements core.App structurally.
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
func (a *App) Name() string { return "police" }

// EventGrain implements core.Grained: POLICE events are message-handling
// stubs of a telecommunications model — a few microseconds of computation
// each — which makes the model communication-bound, the regime the paper's
// early-cancellation results live in.
func (a *App) EventGrain() vtime.ModelTime { return 4 * vtime.Microsecond }

// Build implements core.App. Centre c lives on LP c%numLPs; station i on LP
// i%numLPs. Each object type comes in one slice, and the objects of one type
// on one LP share one snapshot list of each kind, which only that LP's
// kernel touches.
func (a *App) Build(numLPs int, seed uint64) (map[timewarp.ObjectID]timewarp.Object, func(timewarp.ObjectID) int) {
	p := a.Params
	place := func(id timewarp.ObjectID) int {
		n := int(id)
		if n < p.Centres {
			return n % numLPs
		}
		return (n - p.Centres) % numLPs
	}
	objs := make(map[timewarp.ObjectID]timewarp.Object, p.Centres+p.Stations)
	centres, centreSnaps := make([]centre, p.Centres), make([]timewarp.Snapshots[centreState], numLPs)
	smallSnaps := make([]timewarp.Snapshots[smallCentreState], numLPs)
	for c := range centres {
		lp := place(p.centreID(c))
		centres[c] = centre{
			index: c, p: p,
			st:    centreState{centreScalars: centreScalars{rnd: rng.NewFor(seed, 50000+uint64(c))}},
			snaps: &centreSnaps[lp], small: &smallSnaps[lp],
		}
		objs[p.centreID(c)] = &centres[c]
	}
	stations, stationSnaps := make([]station, p.Stations), make([]timewarp.Snapshots[stationState], numLPs)
	for i := range stations {
		stations[i] = station{
			id: p.stationID(i), index: i, p: p,
			st: stationState{
				remaining: p.IncidentsPerStation,
				rnd:       rng.NewFor(seed, uint64(i)),
			},
			snaps: &stationSnaps[place(p.stationID(i))],
		}
		objs[p.stationID(i)] = &stations[i]
	}
	return objs, place
}

// ---- station ----

type stationState struct {
	remaining int         // incidents not yet raised
	busyUntil vtime.VTime // patrol unit committed until this time
	resolved  uint64
	acc       uint64
	rnd       rng.Source
}

type station struct {
	id    timewarp.ObjectID
	index int
	p     Params
	st    stationState
	snaps *timewarp.Snapshots[stationState] // shared by the stations on this station's LP
}

// Init schedules the first incident.
func (s *station) Init(ctx *timewarp.Context) {
	if s.st.remaining > 0 {
		delay := vtime.VTime(s.st.rnd.ExpInt64(s.p.IncidentMean))
		ctx.Send(s.id, delay, payload(msgIncident, 0, uint32(s.index)))
	}
}

func (s *station) centre() timewarp.ObjectID {
	return s.p.centreID(s.p.centreOf(s.index))
}

// Execute handles the station's message traffic.
func (s *station) Execute(ctx *timewarp.Context, ev *timewarp.Event) {
	s.st.acc = timewarp.DigestMix(s.st.acc, ev.Payload^uint64(ev.RecvTS))
	switch payloadKind(ev.Payload) {
	case msgIncident:
		s.st.remaining--
		// Report to the regional centre and schedule the next incident.
		ctx.Send(s.centre(), vtime.VTime(s.st.rnd.UniformInt64(8, 24)),
			payload(msgReport, 0, uint32(s.index)))
		if s.st.remaining > 0 {
			delay := vtime.VTime(s.st.rnd.ExpInt64(s.p.IncidentMean))
			ctx.Send(s.id, delay, payload(msgIncident, 0, uint32(s.index)))
		}
	case msgQuery:
		kind := msgAvail
		if ctx.Now() < s.st.busyUntil || s.st.rnd.Bool(s.p.BusyFraction) {
			kind = msgBusy
		}
		ctx.Send(ev.Src, vtime.VTime(s.st.rnd.UniformInt64(4, 16)),
			payload(kind, payloadIncident(ev.Payload), uint32(s.index)))
	case msgAssign:
		service := vtime.VTime(s.st.rnd.UniformInt64(30, 120))
		s.st.busyUntil = vtime.Advance(ctx.Now(), service)
		s.st.resolved++
		ctx.Send(ev.Src, service,
			payload(msgComplete, payloadIncident(ev.Payload), uint32(s.index)))
	default:
		panic(fmt.Sprintf("police: station %d got unexpected kind %d", s.index, payloadKind(ev.Payload)))
	}
}

func (s *station) SaveState() interface{}     { return s.snaps.Save(&s.st) }
func (s *station) ReleaseState(v interface{}) { s.snaps.Release(v) }
func (s *station) RestoreState(v interface{}) { s.st = *v.(*stationState) }
func (s *station) Digest() uint64 {
	h := s.st.acc
	h = timewarp.DigestMix(h, s.st.resolved)
	h = timewarp.DigestMix(h, uint64(s.st.remaining))
	h = timewarp.DigestMix(h, uint64(s.st.busyUntil))
	h = timewarp.DigestMix(h, s.st.rnd.State())
	return h
}

// ---- centre ----

// openIncident tracks one incident awaiting assignment.
type openIncident struct {
	id       uint32
	origin   uint32
	assigned bool
	replies  uint8
}

// openTable bounds the centre's pending-incident memory; it is a fixed-size
// value so state saving copies it wholesale.
const openTableSize = 32

// smallOpen is how many open incidents a small centre snapshot holds. Most
// saves find a nearly empty table: on the police-batch8 bench model 96.8 %
// of them hold at most 8. Fewer slots cost suite-sweep bytes, more cost
// both POLICE bench workloads bytes (EXPERIMENTS.md, "What a saved state
// cost").
const smallOpen = 8

// centreScalars is a centre's state besides its open table.
type centreScalars struct {
	nextIncident uint32
	openCount    int
	resolved     uint64
	abandoned    uint64
	acc          uint64
	rnd          rng.Source
}

// centreState is a centre's state, 432 bytes. Slots past openCount are
// zero: dropSlot clears the one it vacates.
type centreState struct {
	centreScalars
	open [openTableSize]openIncident
}

// smallCentreState is the 144-byte snapshot of a centre with at most
// smallOpen open incidents.
type smallCentreState struct {
	centreScalars
	open [smallOpen]openIncident
}

type centre struct {
	index int
	p     Params
	st    centreState
	// The centres on this centre's LP share one list of each snapshot kind.
	snaps *timewarp.Snapshots[centreState]
	small *timewarp.Snapshots[smallCentreState]
}

func (c *centre) Init(ctx *timewarp.Context) {}

// slotOf finds the open-table slot of an incident, or -1.
func (c *centre) slotOf(incident uint32) int {
	for i := 0; i < c.st.openCount; i++ {
		if c.st.open[i].id == incident {
			return i
		}
	}
	return -1
}

// dropSlot removes slot i from the open table.
func (c *centre) dropSlot(i int) {
	copy(c.st.open[i:], c.st.open[i+1:c.st.openCount])
	c.st.openCount--
	c.st.open[c.st.openCount] = openIncident{}
}

// Execute handles the centre's message traffic.
func (c *centre) Execute(ctx *timewarp.Context, ev *timewarp.Event) {
	c.st.acc = timewarp.DigestMix(c.st.acc, ev.Payload^uint64(ev.RecvTS))
	switch payloadKind(ev.Payload) {
	case msgReport:
		c.st.nextIncident++
		inc := c.st.nextIncident
		if c.st.openCount == openTableSize {
			// Table full: the oldest incident is abandoned (deterministic
			// overload shedding).
			c.dropSlot(0)
			c.st.abandoned++
		}
		c.st.open[c.st.openCount] = openIncident{id: inc, origin: payloadStation(ev.Payload)}
		c.st.openCount++
		// Availability-query burst to candidate stations of this precinct.
		for k := 0; k < c.p.QueryFanout; k++ {
			s := c.precinctStation()
			ctx.Send(s, vtime.VTime(4+c.st.rnd.Int63n(12)),
				payload(msgQuery, inc, uint32(c.index)))
		}
	case msgAvail:
		inc := payloadIncident(ev.Payload)
		if i := c.slotOf(inc); i >= 0 && !c.st.open[i].assigned {
			c.st.open[i].assigned = true
			ctx.Send(ev.Src, vtime.VTime(c.st.rnd.UniformInt64(3, 10)),
				payload(msgAssign, inc, uint32(c.index)))
		}
		c.noteReply(inc)
	case msgBusy:
		c.noteReply(payloadIncident(ev.Payload))
	case msgComplete:
		inc := payloadIncident(ev.Payload)
		if i := c.slotOf(inc); i >= 0 {
			c.dropSlot(i)
		}
		c.st.resolved++
		if c.p.Centres > 1 && c.st.rnd.Bool(c.p.SummaryFraction) {
			peer := c.p.centreID((c.index + 1 + c.st.rnd.Intn(c.p.Centres-1)) % c.p.Centres)
			ctx.Send(peer, vtime.VTime(c.st.rnd.UniformInt64(8, 24)),
				payload(msgSummary, inc, uint32(c.index)))
		}
	case msgSummary:
		// Folded into the digest accumulator above.
	default:
		panic(fmt.Sprintf("police: centre %d got unexpected kind %d", c.index, payloadKind(ev.Payload)))
	}
}

// noteReply counts an availability reply; an incident whose whole burst
// came back busy is abandoned (the paper's model is "simple" — no retry).
func (c *centre) noteReply(incident uint32) {
	i := c.slotOf(incident)
	if i < 0 {
		return
	}
	c.st.open[i].replies++
	if int(c.st.open[i].replies) >= c.p.QueryFanout && !c.st.open[i].assigned {
		c.dropSlot(i)
		c.st.abandoned++
	}
}

// precinctStation picks a random station assigned to this centre.
func (c *centre) precinctStation() timewarp.ObjectID {
	// Stations with centreOf(i) == c.index are i ≡ (c.index-1) mod Centres.
	base := c.index - 1
	if base < 0 {
		base += c.p.Centres
	}
	count := (c.p.Stations - base + c.p.Centres - 1) / c.p.Centres
	if count <= 0 {
		// Degenerate tiny configuration: fall back to any station.
		return c.p.stationID(c.st.rnd.Intn(c.p.Stations))
	}
	k := c.st.rnd.Intn(count)
	return c.p.stationID(base + k*c.p.Centres)
}

// SaveState saves a centre with at most smallOpen open incidents in a small
// snapshot, its table's first smallOpen slots (the rest are zero), and a
// fuller one whole.
func (c *centre) SaveState() interface{} {
	if c.st.openCount > smallOpen {
		return c.snaps.Save(&c.st)
	}
	s := smallCentreState{c.st.centreScalars, [smallOpen]openIncident(c.st.open[:smallOpen])}
	return c.small.Save(&s)
}

func (c *centre) ReleaseState(v interface{}) {
	if _, ok := v.(*smallCentreState); ok {
		c.small.Release(v)
		return
	}
	c.snaps.Release(v)
}

func (c *centre) RestoreState(v interface{}) {
	s, ok := v.(*smallCentreState)
	if !ok {
		c.st = *v.(*centreState)
		return
	}
	c.st = centreState{centreScalars: s.centreScalars}
	copy(c.st.open[:], s.open[:])
}

func (c *centre) Digest() uint64 {
	h := c.st.acc
	h = timewarp.DigestMix(h, c.st.resolved)
	h = timewarp.DigestMix(h, c.st.abandoned)
	h = timewarp.DigestMix(h, uint64(c.st.nextIncident))
	h = timewarp.DigestMix(h, uint64(c.st.openCount))
	for i := 0; i < c.st.openCount; i++ {
		h = timewarp.DigestMix(h, uint64(c.st.open[i].id)<<32|uint64(c.st.open[i].origin))
	}
	h = timewarp.DigestMix(h, c.st.rnd.State())
	return h
}
