package des

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"nicwarp/internal/vtime"
)

// Group ties one or more engines into a run under a bounded-lag window
// protocol. Each round the coordinator computes the global minimum pending
// time M, opens a window [M, M+lookahead), and releases every engine to run
// its own events strictly inside the window, one goroutine per processor.
// Cross-shard events produced during the window are staged in the source
// engine's per-destination outbox; at the barrier the coordinator moves
// each destination's inbound events into its heap before the next round
// opens. Their (time, order key) — the order key encodes (source lane,
// source sequence) — decides when they fire, exactly as for locally
// scheduled events.
//
// Safety requires that every event bound for another lane lands at least
// `lookahead` past the sender's clock; AtCross enforces this at every
// engine count, so a model whose minimum cross-node latency is overstated
// fails loudly, serially too, instead of silently reordering.
//
// The barrier is the one point where every engine has run exactly the
// events below the same horizon, at any engine count: a barrier function
// (SetBarrier) may read state across all of them there.
type Group struct {
	engines   []*Engine
	lookahead vtime.ModelTime
	workers   []shardWorker
	barrier   func()
	// round numbers every worker release over the group's life, so a Run
	// after a drained one never mistakes an earlier round for its own.
	round uint32
}

// shardWorker is the coordinator↔worker mailbox for one worker goroutine.
// round/done carry the release/park handshake; horizon and panicked are
// plain, ordered by the round and done stores that follow their writes.
// stop is atomic: a coordinator unwinding from a panic sets it mid-round.
// The padding keeps mailboxes on separate cache lines.
type shardWorker struct {
	_        [64]byte
	round    atomic.Uint32
	done     atomic.Uint32
	horizon  vtime.ModelTime
	stop     atomic.Bool
	panicked interface{}
	_        [64]byte
}

// NewGroup wires engines into a group with the given minimum cross-lane
// latency. Lookahead is the window width, and a zero window cannot carry
// events between engines, so it must be positive unless there is only one
// engine. Engines must not already belong to a group.
func NewGroup(engines []*Engine, lookahead vtime.ModelTime) *Group {
	if len(engines) == 0 {
		panic("des: NewGroup with no engines")
	}
	if lookahead <= 0 && len(engines) > 1 {
		panic(fmt.Sprintf("des: NewGroup of %d engines with nonpositive lookahead %v", len(engines), lookahead))
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

// SetBarrier installs fn to run on the coordinator after each window's
// merge. Every engine has then run exactly the events below the window
// horizon, and the horizons do not depend on the engine count, so what fn
// reads across engines is the same at any shard count. Setting a barrier
// makes even a lone engine run window by window.
func (g *Group) SetBarrier(fn func()) { g.barrier = fn }

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

// Pending returns the total number of scheduled, uncancelled callbacks
// across members, not counting one that is currently executing, including
// staged cross-shard events not yet merged. It counts armed events, not
// queued work: a busy Resource keeps exactly one event on the list however
// many jobs wait behind its head-of-line one, so Pending is a quiescence
// test — zero or not — rather than a backlog measure.
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

// addSatM is saturating ModelTime addition for window arithmetic, where
// limit may be ModelInfinity.
func addSatM(a, b vtime.ModelTime) vtime.ModelTime {
	if s := a + b; s >= a {
		return s
	}
	return vtime.ModelInfinity
}

// Run executes the group until no member has an event at or below limit.
// It is one window loop for any member count. Each window opens at the
// global minimum pending time M and closes at M+lookahead, so the horizons
// depend only on the events, never on how lanes are dealt to engines. A
// lone engine with no barrier has nothing to close windows for: its whole
// horizon is one window, which is exactly Engine.Run.
//
// The engines are dealt to k = min(engines, GOMAXPROCS) goroutines, the
// caller and k−1 workers: goroutine i runs engines i, i+k, … in index
// order. Within a round each engine touches only its own state, and the
// merge does not depend on the order windows ran in: the deal is invisible.
//
// A panic in any engine's callback reaches the caller: a worker's as the
// lowest-indexed panicking worker's value, re-panicked once its round is
// done. Run stops and waits for every worker it started before unwinding.
func (g *Group) Run(limit vtime.ModelTime) vtime.ModelTime {
	// Events staged before Run (boot-time cross-shard scheduling) must be
	// merged before the first window opens.
	g.merge()
	k := min(len(g.engines), runtime.GOMAXPROCS(0))
	ws := g.workers[:k-1]
	var wg sync.WaitGroup
	for i := range ws {
		ws[i].stop.Store(false)
		ws[i].panicked = nil
		wg.Add(1)
		go g.workerLoop(i+1, k, &ws[i], g.round, &wg)
	}
	defer func() {
		g.round++
		for i := range ws {
			w := &ws[i]
			w.stop.Store(true)
			w.round.Store(g.round)
		}
		wg.Wait()
	}()
	// A lone engine may have no lookahead; one-tick windows still let its
	// barrier see the run advance.
	width := vtime.MaxM(g.lookahead, 1)
	if len(g.engines) == 1 && g.barrier == nil {
		width = vtime.ModelInfinity
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
		h := vtime.MinM(addSatM(m, width), addSatM(limit, 1))
		g.round++
		for i := range ws {
			w := &ws[i]
			w.horizon = h
			w.round.Store(g.round)
		}
		g.runShare(0, k, h)
		for i := range ws {
			w := &ws[i]
			for spin := 0; w.done.Load() != g.round; spin++ {
				if spin > 64 {
					runtime.Gosched()
				}
			}
			if w.panicked != nil {
				panic(w.panicked)
			}
		}
		g.merge()
		if g.barrier != nil {
			g.barrier()
		}
	}
	return g.align()
}

// runShare runs the windows of engines i, i+k, i+2k, … below horizon h.
func (g *Group) runShare(i, k int, h vtime.ModelTime) {
	for ; i < len(g.engines); i += k {
		g.engines[i].runWindow(h)
	}
}

// workerLoop is goroutine i of k: it parks on the mailbox until the
// coordinator releases a round after seen, runs its share of the window,
// and reports done. A panic is recorded, reported as done, and ends the
// worker. Plain loads of horizon are ordered by the acquiring load of round.
func (g *Group) workerLoop(i, k int, w *shardWorker, seen uint32, wg *sync.WaitGroup) {
	defer wg.Done()
	defer func() {
		if p := recover(); p != nil {
			w.panicked = p
			w.done.Store(seen)
		}
	}()
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
		if w.stop.Load() {
			return
		}
		g.runShare(i, k, w.horizon)
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
				dst.arena[ei].cb = callback{fn2: se.fn2, arg: se.a, argB: se.b}
				s[i] = stagedEv{}
			}
			src.staged[d] = s[:0]
		}
	}
}
