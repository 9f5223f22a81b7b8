package des

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"nicwarp/internal/vtime"
)

// Group ties several engines into one sharded run under a bounded-lag
// window protocol. Each round the coordinator computes the global minimum
// pending time M, opens a window [M, M+lookahead), and releases every
// engine to run its own events strictly inside the window on its own
// goroutine. Cross-shard events produced during the window are staged in
// the source engine's per-destination outbox; at the barrier the
// coordinator moves each destination's inbound events into its heap before
// the next round opens. Their (time, order key) — the order key encodes
// (source lane, source sequence) — decides when they fire, exactly as for
// locally scheduled events.
//
// Safety requires that every cross-shard event lands at least `lookahead`
// past the sender's clock; AtCross enforces this at staging time, so a
// model whose minimum cross-shard latency is overstated fails loudly
// instead of silently reordering.
type Group struct {
	engines   []*Engine
	lookahead vtime.ModelTime
	workers   []shardWorker
	// round numbers every worker release over the group's life, so a Run
	// after a drained one never mistakes an earlier round for its own.
	round uint32
}

// shardWorker is the coordinator↔worker mailbox for one non-coordinator
// shard. round/done carry the release/park handshake; horizon is written
// by the coordinator before the round release store, so the worker's
// acquiring load of round orders the horizon read correctly. The padding
// keeps mailboxes on separate cache lines.
type shardWorker struct {
	_       [64]byte
	round   atomic.Uint32
	done    atomic.Uint32
	horizon vtime.ModelTime
	stop    bool
	_       [64]byte
}

// NewGroup wires engines into a shard group with the given minimum
// cross-shard latency. Lookahead must be positive: it is the window width,
// and a zero window cannot make progress. Engines must not already belong
// to a group.
func NewGroup(engines []*Engine, lookahead vtime.ModelTime) *Group {
	if len(engines) == 0 {
		panic("des: NewGroup with no engines")
	}
	if lookahead <= 0 {
		panic(fmt.Sprintf("des: NewGroup with nonpositive lookahead %v", lookahead))
	}
	g := &Group{engines: engines, lookahead: lookahead}
	for i, e := range engines {
		if e.group != nil {
			panic("des: engine already belongs to a Group")
		}
		e.group = g
		e.shard = i
		e.staged = make([][]stagedEv, len(engines))
	}
	if len(engines) > 1 {
		g.workers = make([]shardWorker, len(engines)-1)
	}
	return g
}

// Now returns the run's clock: the maximum of the member clocks. Members
// advance independently inside a window, but at every barrier all clocks
// sit within one window of each other, and after Run returns every member
// clock equals the serial engine's final clock.
func (g *Group) Now() vtime.ModelTime {
	var m vtime.ModelTime
	for _, e := range g.engines {
		m = vtime.MaxM(m, e.now)
	}
	return m
}

// Pending returns the total number of scheduled callbacks across members,
// including staged cross-shard events not yet merged. Like Engine.Pending
// it counts armed events — one per busy Resource — not queued jobs.
func (g *Group) Pending() int {
	n := 0
	for _, e := range g.engines {
		n += e.heap.Len()
		for _, s := range e.staged {
			n += len(s)
		}
	}
	return n
}

// Processed returns the total number of callbacks executed across members.
func (g *Group) Processed() uint64 {
	var n uint64
	for _, e := range g.engines {
		n += e.processed
	}
	return n
}

// addSatM is saturating ModelTime addition for window arithmetic, where
// limit may be ModelInfinity.
func addSatM(a, b vtime.ModelTime) vtime.ModelTime {
	if s := a + b; s >= a {
		return s
	}
	return vtime.ModelInfinity
}

// Run executes the group until no member has an event at or below limit.
// With one member it is exactly Engine.Run. With several it runs the
// window protocol, spinning up one goroutine per extra shard for the
// duration of the call — except on a single-processor runtime, where the
// spin barrier could only burn scheduler quanta and every window runs
// sequentially on the calling goroutine instead.
func (g *Group) Run(limit vtime.ModelTime) vtime.ModelTime {
	if len(g.engines) == 1 {
		return g.engines[0].Run(limit)
	}
	// Events staged before Run (boot-time cross-shard scheduling) must be
	// merged before the first window opens.
	g.merge()
	if runtime.GOMAXPROCS(0) == 1 {
		return g.runInline(limit)
	}

	var wg sync.WaitGroup
	for i := 1; i < len(g.engines); i++ {
		wg.Add(1)
		go g.workerLoop(g.engines[i], &g.workers[i-1], g.round, &wg)
	}
	for {
		m := vtime.ModelInfinity
		none := true
		for _, e := range g.engines {
			if e.heap.Len() > 0 {
				none = false
				m = vtime.MinM(m, e.minAt())
			}
		}
		if none || m > limit {
			break
		}
		// Events exactly at limit must run (Engine.Run is inclusive), and
		// runWindow is strict, so the horizon is capped at limit+1.
		h := vtime.MinM(addSatM(m, g.lookahead), addSatM(limit, 1))
		active, solo := 0, -1
		for i, e := range g.engines {
			if e.heap.Len() > 0 && e.minAt() < h {
				active++
				solo = i
			}
		}
		if active == 1 {
			// One busy shard: run it inline instead of paying the barrier.
			g.engines[solo].runWindow(h)
		} else {
			g.round++
			for i := range g.workers {
				w := &g.workers[i]
				w.horizon = h
				w.round.Store(g.round)
			}
			g.engines[0].runWindow(h)
			for i := range g.workers {
				w := &g.workers[i]
				for spin := 0; w.done.Load() != g.round; spin++ {
					if spin > 64 {
						runtime.Gosched()
					}
				}
			}
		}
		g.merge()
	}
	g.round++
	for i := range g.workers {
		w := &g.workers[i]
		w.stop = true
		w.round.Store(g.round)
	}
	wg.Wait()
	return g.align()
}

// runInline is the window protocol without workers or barriers: each
// round's active windows run back to back in shard order on the calling
// goroutine. Within a round every engine touches only its own heap, arena,
// and staging buffers, and what the barrier merge leaves in each heap does
// not depend on the order windows ran in, so the committed schedule is
// byte-identical to the parallel path's.
func (g *Group) runInline(limit vtime.ModelTime) vtime.ModelTime {
	for {
		m := vtime.ModelInfinity
		none := true
		for _, e := range g.engines {
			if e.heap.Len() > 0 {
				none = false
				m = vtime.MinM(m, e.minAt())
			}
		}
		if none || m > limit {
			return g.align()
		}
		h := vtime.MinM(addSatM(m, g.lookahead), addSatM(limit, 1))
		for _, e := range g.engines {
			if e.heap.Len() > 0 && e.minAt() < h {
				e.runWindow(h)
			}
		}
		g.merge()
	}
}

// workerLoop parks on the mailbox until the coordinator releases a round
// after seen, runs the shard's window, and reports done. Plain loads of
// horizon/stop are ordered by the acquiring load of round.
func (g *Group) workerLoop(e *Engine, w *shardWorker, seen uint32, wg *sync.WaitGroup) {
	defer wg.Done()
	for {
		for spin := 0; ; spin++ {
			if r := w.round.Load(); r != seen {
				seen = r
				break
			}
			if spin > 64 {
				runtime.Gosched()
			}
		}
		if w.stop {
			w.stop = false // the next Run's worker starts afresh
			return
		}
		e.runWindow(w.horizon)
		w.done.Store(seen)
	}
}

// align sets every member clock to the group clock as Run returns, so work
// scheduled between runs starts from the serial engine's final clock on
// every shard. No member holds an event at or below that clock.
func (g *Group) align() vtime.ModelTime {
	now := g.Now()
	for _, e := range g.engines {
		e.now = now
	}
	return now
}

// merge moves every staged cross-shard event into its destination heap.
// The order they are inserted in — which depends on the shard count — is
// immaterial: (time, order key) is a strict total order over every event of
// the run (the key embeds the source lane and its sequence number), so the
// heap pops the same sequence whatever order it was filled in. Runs only on
// the coordinator between windows.
func (g *Group) merge() {
	for d, dst := range g.engines {
		for _, src := range g.engines {
			s := src.staged[d]
			for i := range s {
				se := &s[i]
				if se.at < dst.now {
					panic(fmt.Sprintf("des: merged cross-shard event at %v is before destination clock %v", se.at, dst.now))
				}
				dst.ensureLane(se.lane)
				ei := dst.insert(eventKey(se.at, se.ord), se.lane)
				ev := &dst.arena[ei]
				ev.fn2 = se.fn2
				ev.arg = se.a
				ev.argB = se.b
				s[i] = stagedEv{}
			}
			src.staged[d] = s[:0]
		}
	}
}
