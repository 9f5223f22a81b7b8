// Package raid implements the paper's RAID application: a model of a RAID-5
// disk array from the WARPED release. Source processes generate disk I/O
// requests and send them to fork processes, which stripe each request over
// the disks of the array; disks service the accesses with seek, rotation
// and transfer delays and reply to the requesting source.
//
// The paper runs two configurations on 8 LPs:
//
//   - GVT experiment (Figure 4): "10 processes sending disk I/O requests to
//     8 forks which in turn forward the requests to one of the 8 disks".
//   - Early-cancellation experiment (Figure 6): "16 source processes, 8
//     forks, and 8 disks spread across 8 LPs", 50k–400k disk requests.
//
// Sources run a closed loop with a small window of outstanding requests, so
// disk response-time variance across LPs continually perturbs the event
// order and produces the moderate rollback rate the paper observes (RAID
// cancels few messages in place — the pipeline keeps NIC send queues
// shallow).
package raid

import (
	"fmt"

	"nicwarp/internal/rng"
	"nicwarp/internal/timewarp"
	"nicwarp/internal/vtime"
)

// Params configures the RAID model.
type Params struct {
	// Sources, Forks, Disks are the object counts (paper: 10 or 16 / 8 / 8).
	Sources int
	Forks   int
	Disks   int
	// Requests is the total number of disk I/O requests issued by all
	// sources together (the x-axis of Figure 6).
	Requests int
	// Window is each source's outstanding-request window.
	Window int
	// ThinkMean is the mean think time between a completion and the next
	// request at a source.
	ThinkMean float64
	// WriteFraction is the fraction of requests that are RAID-5 writes,
	// which touch a data disk and the stripe's parity disk.
	WriteFraction float64
}

// GVTConfig returns the Figure 4 configuration (10 sources).
func GVTConfig(requests int) Params {
	return Params{
		Sources: 10, Forks: 8, Disks: 8,
		Requests: requests, Window: 4,
		ThinkMean: 120, WriteFraction: 0.33,
	}
}

// CancelConfig returns the Figure 6 configuration (16 sources).
func CancelConfig(requests int) Params {
	return Params{
		Sources: 16, Forks: 8, Disks: 8,
		Requests: requests, Window: 4,
		ThinkMean: 120, WriteFraction: 0.33,
	}
}

// Validate checks the parameters.
func (p Params) Validate() error {
	if p.Sources < 1 || p.Forks < 1 || p.Disks < 1 {
		return fmt.Errorf("raid: need at least one source, fork and disk")
	}
	if p.Requests < 0 {
		return fmt.Errorf("raid: negative request count")
	}
	if p.Window < 1 {
		return fmt.Errorf("raid: window must be >= 1")
	}
	if p.ThinkMean <= 0 {
		return fmt.Errorf("raid: think mean must be positive")
	}
	if p.WriteFraction < 0 || p.WriteFraction > 1 {
		return fmt.Errorf("raid: write fraction must be in [0,1]")
	}
	return nil
}

// Object ID layout: sources first, then forks, then disks.
func (p Params) sourceID(i int) timewarp.ObjectID { return timewarp.ObjectID(i) }
func (p Params) forkID(i int) timewarp.ObjectID   { return timewarp.ObjectID(p.Sources + i) }
func (p Params) diskID(i int) timewarp.ObjectID   { return timewarp.ObjectID(p.Sources + p.Forks + i) }

// App builds RAID clusters; it implements core.App structurally.
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
func (a *App) Name() string { return "raid" }

// Build implements core.App. Placement mirrors the paper's layout: fork i
// and disk i live on LP i%numLPs; sources round-robin across LPs. Each
// object type comes in one slice, and the objects of one type on one LP
// share one snapshot list, which only that LP's kernel touches.
func (a *App) Build(numLPs int, seed uint64) (map[timewarp.ObjectID]timewarp.Object, func(timewarp.ObjectID) int) {
	p := a.Params
	place := func(id timewarp.ObjectID) int {
		n := int(id)
		switch {
		case n < p.Sources:
			return n % numLPs
		case n < p.Sources+p.Forks:
			return (n - p.Sources) % numLPs
		default:
			return (n - p.Sources - p.Forks) % numLPs
		}
	}
	objs := make(map[timewarp.ObjectID]timewarp.Object, p.Sources+p.Forks+p.Disks)

	perSource := p.Requests / p.Sources
	extra := p.Requests % p.Sources
	sources, sourceSnaps := make([]source, p.Sources), make([]timewarp.Snapshots[sourceState], numLPs)
	for i := range sources {
		quota := perSource
		if i < extra {
			quota++
		}
		sources[i] = source{
			id: p.sourceID(i), p: p,
			st:    sourceState{remaining: quota, rnd: rng.NewFor(seed, uint64(i))},
			snaps: &sourceSnaps[place(p.sourceID(i))],
		}
		objs[p.sourceID(i)] = &sources[i]
	}
	forks, forkSnaps := make([]fork, p.Forks), make([]timewarp.Snapshots[forkState], numLPs)
	for i := range forks {
		forks[i] = fork{
			p:     p,
			st:    forkState{rnd: rng.NewFor(seed, 1000+uint64(i))},
			snaps: &forkSnaps[place(p.forkID(i))],
		}
		objs[p.forkID(i)] = &forks[i]
	}
	disks, diskSnaps := make([]disk, p.Disks), make([]timewarp.Snapshots[diskState], numLPs)
	for i := range disks {
		disks[i] = disk{
			id:    p.diskID(i),
			st:    diskState{rnd: rng.NewFor(seed, 2000+uint64(i))},
			snaps: &diskSnaps[place(p.diskID(i))],
		}
		objs[p.diskID(i)] = &disks[i]
	}
	return objs, place
}

// Payload encoding: low 32 bits carry the requesting source id so disks can
// reply; bit 32 marks parity accesses (no reply expected).
const parityFlag uint64 = 1 << 32

// ---- source ----

type sourceState struct {
	remaining int // requests not yet issued
	done      uint64
	acc       uint64
	rnd       rng.Source
}

type source struct {
	id    timewarp.ObjectID
	p     Params
	st    sourceState
	snaps *timewarp.Snapshots[sourceState] // shared by the sources on this source's LP
}

// Init fills the outstanding window.
func (s *source) Init(ctx *timewarp.Context) {
	for k := 0; k < s.p.Window && s.st.remaining > 0; k++ {
		s.issue(ctx)
	}
}

// issue sends one request to a random fork after a think delay.
func (s *source) issue(ctx *timewarp.Context) {
	s.st.remaining--
	f := s.p.forkID(s.st.rnd.Intn(s.p.Forks))
	delay := vtime.VTime(s.st.rnd.ExpInt64(s.p.ThinkMean))
	ctx.Send(f, delay, uint64(uint32(s.id)))
}

// Execute handles a disk completion.
func (s *source) Execute(ctx *timewarp.Context, ev *timewarp.Event) {
	s.st.done++
	s.st.acc = timewarp.DigestMix(s.st.acc, ev.Payload^uint64(ev.RecvTS))
	if s.st.remaining > 0 {
		s.issue(ctx)
	}
}

func (s *source) SaveState() interface{}     { return s.snaps.Save(&s.st) }
func (s *source) ReleaseState(v interface{}) { s.snaps.Release(v) }
func (s *source) RestoreState(v interface{}) { s.st = *v.(*sourceState) }
func (s *source) Digest() uint64 {
	h := s.st.acc
	h = timewarp.DigestMix(h, s.st.done)
	h = timewarp.DigestMix(h, uint64(s.st.remaining))
	h = timewarp.DigestMix(h, s.st.rnd.State())
	return h
}

// ---- fork ----

type forkState struct {
	routed uint64
	rnd    rng.Source
}

type fork struct {
	p     Params
	st    forkState
	snaps *timewarp.Snapshots[forkState] // shared by the forks on this fork's LP
}

func (f *fork) Init(ctx *timewarp.Context) {}

// Execute stripes a request: reads touch one disk; writes touch the data
// disk and the stripe's parity disk (RAID-5 read-modify-write, abstracted).
func (f *fork) Execute(ctx *timewarp.Context, ev *timewarp.Event) {
	f.st.routed++
	data := f.st.rnd.Intn(f.p.Disks)
	routeDelay := vtime.VTime(f.st.rnd.UniformInt64(2, 8))
	ctx.Send(f.p.diskID(data), routeDelay, ev.Payload)
	if f.p.Disks > 1 && f.st.rnd.Bool(f.p.WriteFraction) {
		parity := (data + 1) % f.p.Disks
		ctx.Send(f.p.diskID(parity), vtime.Advance(routeDelay, 1), ev.Payload|parityFlag)
	}
}

func (f *fork) SaveState() interface{}     { return f.snaps.Save(&f.st) }
func (f *fork) ReleaseState(v interface{}) { f.snaps.Release(v) }
func (f *fork) RestoreState(v interface{}) { f.st = *v.(*forkState) }
func (f *fork) Digest() uint64 {
	h := f.st.routed
	h = timewarp.DigestMix(h, f.st.rnd.State())
	return h
}

// ---- disk ----

type diskState struct {
	served uint64
	acc    uint64
	rnd    rng.Source
}

type disk struct {
	id    timewarp.ObjectID
	st    diskState
	snaps *timewarp.Snapshots[diskState] // shared by the disks on this disk's LP
}

func (d *disk) Init(ctx *timewarp.Context) {}

// Execute services an access: seek + rotation + transfer, then replies to
// the requesting source (parity accesses complete silently).
func (d *disk) Execute(ctx *timewarp.Context, ev *timewarp.Event) {
	d.st.served++
	d.st.acc = timewarp.DigestMix(d.st.acc, ev.Payload^uint64(ev.RecvTS))
	service := vtime.VTime(d.st.rnd.UniformInt64(20, 90))               // seek + rotation
	service = vtime.AddSat(service, vtime.VTime(d.st.rnd.ExpInt64(15))) // transfer
	if ev.Payload&parityFlag != 0 {
		return
	}
	src := timewarp.ObjectID(uint32(ev.Payload))
	ctx.Send(src, service, uint64(uint32(d.id))<<33|uint64(uint32(ev.RecvTS)))
}

func (d *disk) SaveState() interface{}     { return d.snaps.Save(&d.st) }
func (d *disk) ReleaseState(v interface{}) { d.snaps.Release(v) }
func (d *disk) RestoreState(v interface{}) { d.st = *v.(*diskState) }
func (d *disk) Digest() uint64 {
	h := d.st.acc
	h = timewarp.DigestMix(h, d.st.served)
	h = timewarp.DigestMix(h, d.st.rnd.State())
	return h
}
