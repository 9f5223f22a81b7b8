package main

import (
	"time"

	"nicwarp/internal/des"
	"nicwarp/internal/vtime"
)

// desHold is the classic hold model: every fired timer schedules one
// replacement at a random future time, so the heap depth stays constant.
type desHold struct {
	eng *des.Engine
	rng uint64
}

func (h *desHold) delay() vtime.ModelTime {
	return vtime.ModelTime(1 + splitmix64(&h.rng)%1000)
}

func desHoldFire(x interface{}) {
	h := x.(*desHold)
	h.eng.AtArg(h.eng.Now()+h.delay(), desHoldFire, h)
}

// probeDesStep times Engine.Step (pop, dispatch, one AtArg push) with depth
// timers pending.
func probeDesStep(seed uint64, depth int) float64 {
	h := &desHold{eng: des.NewEngine(), rng: seed}
	for i := 0; i < depth; i++ {
		h.eng.AtArg(h.delay(), desHoldFire, h)
	}
	start := time.Now()
	for i := 0; i < probeBatchOps; i++ {
		h.eng.Step()
	}
	return perOp(start, probeBatchOps)
}

func desNop(interface{}) {}

// probeDesCancel times one AtArgRef plus its TimerRef.Cancel with 1000
// other timers pending.
func probeDesCancel(seed uint64) float64 {
	h := &desHold{eng: des.NewEngine(), rng: seed}
	for i := 0; i < 1000; i++ {
		h.eng.AtArg(h.delay(), desNop, nil)
	}
	start := time.Now()
	for i := 0; i < probeBatchOps; i++ {
		h.eng.AtArgRef(h.delay(), desNop, nil).Cancel()
	}
	return perOp(start, probeBatchOps)
}

// probeDesResource times Resource.SubmitArg including the completion event
// the engine dispatches for it.
func probeDesResource(seed uint64) float64 {
	eng := des.NewEngine()
	res := des.NewResource(eng, "probe")
	const chunk = 1000
	start := time.Now()
	for done := 0; done < probeBatchOps; done += chunk {
		for i := 0; i < chunk; i++ {
			res.SubmitArg(100, desNop, nil)
		}
		eng.Run(vtime.ModelInfinity)
	}
	return perOp(start, probeBatchOps)
}

const probeLookahead vtime.ModelTime = 1000

// desShard is one engine of a two-shard group rig.
type desShard struct {
	eng   *des.Engine
	other *desShard
	lane  uint32
}

func newDesGroup() (*des.Group, [2]*desShard) {
	var sh [2]*desShard
	engines := make([]*des.Engine, 2)
	for i := range sh {
		sh[i] = &desShard{eng: des.NewEngine(), lane: uint32(i)}
		sh[i].eng.SetLane(sh[i].lane)
		engines[i] = sh[i].eng
	}
	sh[0].other, sh[1].other = sh[1], sh[0]
	return des.NewGroup(engines, probeLookahead), sh
}

func desTick(x interface{}) {
	s := x.(*desShard)
	s.eng.AtArg(s.eng.Now()+probeLookahead, desTick, s)
}

// probeDesGroupWindow times one window of Group.Run: both shards hold
// exactly one local event per window, so the cost is the barrier round plus
// two event steps.
func probeDesGroupWindow(seed uint64) float64 {
	g, sh := newDesGroup()
	for _, s := range sh {
		s.eng.AtArg(0, desTick, s)
	}
	const windows = probeBatchOps / 4
	start := time.Now()
	g.Run(windows*probeLookahead - 1)
	return perOp(start, windows)
}

func desCross(a, _ interface{}) {
	s := a.(*desShard)
	s.eng.AtCross(s.other.eng, s.other.lane, s.eng.Now()+probeLookahead, desCross, s.other, nil)
}

// probeDesGroupCross times one cross-shard event: staged by AtCross, merged
// at the barrier and dispatched on the other shard. 64 tokens bounce in each
// direction, so the barrier round is amortised over 128 crossings.
func probeDesGroupCross(seed uint64) float64 {
	g, sh := newDesGroup()
	const tokens = 64
	for _, s := range sh {
		for i := 0; i < tokens; i++ {
			s.eng.AtCross(s.eng, s.lane, 0, desCross, s, nil)
		}
	}
	const windows = probeBatchOps / (2 * tokens)
	start := time.Now()
	g.Run(windows*probeLookahead - 1)
	return perOp(start, windows*2*tokens)
}
