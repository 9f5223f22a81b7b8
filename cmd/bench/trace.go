package main

import (
	"encoding/json"
	"os"
	"time"

	"nicwarp/internal/core"
	"nicwarp/internal/timewarp"
	"nicwarp/internal/vtime"
)

// span is one traced interval. Spans are recorded from this package's own
// files, around its calls into each layer; Parent is an index into the same
// slice (-1 for a root). A span with Calls > 1 is an aggregate: the summed
// duration of that many callback invocations, laid out from its parent's
// start, not one contiguous interval.
type span struct {
	Name     string `json:"name"`
	Layer    string `json:"layer"`
	Workload string `json:"workload"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	Parent   int    `json:"parent"`
	Calls    int64  `json:"calls"`
}

// tracer keeps spans in memory until the benchmark ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name, layer, workload string, parent int) int {
	t.spans = append(t.spans, span{
		Name: name, Layer: layer, Workload: workload,
		StartNs: time.Since(t.t0).Nanoseconds(), Parent: parent, Calls: 1,
	})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id]
	s.EndNs = time.Since(t.t0).Nanoseconds()
	return time.Duration(s.EndNs - s.StartNs)
}

// aggregate records a summed callback span under parent.
func (t *tracer) aggregate(name, layer, workload string, parent int, total time.Duration, calls int64) {
	start := t.spans[parent].StartNs
	t.spans = append(t.spans, span{
		Name: name, Layer: layer, Workload: workload,
		StartNs: start, EndNs: start + total.Nanoseconds(), Parent: parent, Calls: calls,
	})
}

func (t *tracer) write(path string) error {
	data, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// callTimer accumulates one callback's host time and call count.
type callTimer struct {
	ns    int64
	calls int64
}

func (c *callTimer) since(t time.Time) {
	c.ns += time.Since(t).Nanoseconds()
	c.calls++
}

func (c *callTimer) add(o callTimer) {
	c.ns += o.ns
	c.calls += o.calls
}

func (c callTimer) dur() time.Duration { return time.Duration(c.ns) }

// timedObject decorates a simulation object with host timers on the three
// callbacks the kernel invokes per event. An object lives on one node and a
// node on one shard, so its timers are only ever touched by one goroutine.
type timedObject struct {
	inner                  timewarp.Object
	execute, save, restore callTimer
}

func (o *timedObject) Init(ctx *timewarp.Context) { o.inner.Init(ctx) }

func (o *timedObject) Execute(ctx *timewarp.Context, ev *timewarp.Event) {
	defer o.execute.since(time.Now())
	o.inner.Execute(ctx, ev)
}

func (o *timedObject) SaveState() interface{} {
	defer o.save.since(time.Now())
	return o.inner.SaveState()
}

func (o *timedObject) RestoreState(s interface{}) {
	defer o.restore.since(time.Now())
	o.inner.RestoreState(s)
}

func (o *timedObject) Digest() uint64 { return o.inner.Digest() }

// tracedApp wraps a workload's core.App so that every object it builds is a
// timedObject, and times Build itself. One tracedApp serves one cluster.
type tracedApp struct {
	inner core.App
	build callTimer
	objs  []*timedObject
}

func (a *tracedApp) Name() string { return a.inner.Name() }

func (a *tracedApp) Build(numLPs int, seed uint64) (map[timewarp.ObjectID]timewarp.Object, func(timewarp.ObjectID) int) {
	t := time.Now()
	objs, place := a.inner.Build(numLPs, seed)
	a.build.since(t)
	//nicwarp:ordered each object is wrapped in place and the timers are only ever summed
	for id, obj := range objs {
		to := &timedObject{inner: obj}
		a.objs = append(a.objs, to)
		objs[id] = to
	}
	return objs, place
}

// totals sums the per-object callback timers.
func (a *tracedApp) totals() (execute, save, restore callTimer) {
	for _, o := range a.objs {
		execute.add(o.execute)
		save.add(o.save)
		restore.add(o.restore)
	}
	return execute, save, restore
}

// tracedGrainedApp additionally forwards core.Grained. It is a separate
// type because core detects the extension by type assertion: a wrapper that
// always implemented it would change the event grain of plain apps.
type tracedGrainedApp struct {
	*tracedApp
	grain vtime.ModelTime
}

func (a *tracedGrainedApp) EventGrain() vtime.ModelTime { return a.grain }

// wrapApp returns the traced wrapper for app and the core.App to put in the
// Config (the wrapper itself, or its Grained variant).
func wrapApp(app core.App) (*tracedApp, core.App) {
	ta := &tracedApp{inner: app}
	if g, ok := app.(core.Grained); ok {
		return ta, &tracedGrainedApp{tracedApp: ta, grain: g.EventGrain()}
	}
	return ta, ta
}
