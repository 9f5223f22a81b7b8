package gvt

import (
	"fmt"

	"nicwarp/internal/dense"
	"nicwarp/internal/proto"
	"nicwarp/internal/vtime"
)

// Ledger is the white/red colour accounting of one LP, for both host
// managers. It supports several concurrent GVT computations ("waves"),
// which is how WARPED behaves at aggressive GVT_COUNT settings: the root
// launches a new computation every GVT_COUNT events without waiting for the
// previous wave to complete, so at COUNT=1 the ring carries a token backlog
// proportional to the event rate — the traffic that "overwhelms the host
// processor resources" in the paper's Figures 4 and 5. The NIC
// implementation is single-wave: the NIC holds one token until the host
// handshake completes, which is why its round count stays flat in Figure
// 5b, and its host half retires each wave as it joins the next.
//
// The arithmetic is cumulative: a wave's white sends are every send made
// before joining it, and its white receives are all receives with stamp
// below it — ever, since the beginning of the run.
//
// Waves are identified by their epoch number, assigned in initiation order
// by the root. The ring is FIFO, so every LP joins waves in ascending
// order, but an older wave's later rounds may revisit an LP after it has
// joined younger waves — hence per-wave bookkeeping (see wave).
//
// Live waves are kept in one slice ascending by epoch, which is also join
// order. A wave is red-exposed to every send made since it was joined, so
// an older wave has seen a superset of a younger one's sends and the red
// minima are non-decreasing along the slice. OnSend relies on that: it
// walks back from the youngest wave and stops at the first minimum the send
// does not lower, because no older one can be higher.
//
// Receive counts are kept per stamp in a window based at the oldest live
// wave; stamps below it fold into a single bucket when waves retire (epochs
// only grow, so such stamps stay white for every future wave).
//
// The zero value is an empty ledger at epoch zero. The slice starts on the
// ledger's own first slot, so a ledger that never holds two live waves
// allocates nothing, and a ledger must not be copied once joined.
type Ledger struct {
	epoch     uint32 // highest wave joined; the outgoing stamp
	sentTotal int64

	recv  dense.EpochWindow // receives by stamp, based at the oldest live wave
	waves []wave            // live waves, ascending by c
	first [1]wave           // waves' backing array until a second wave is live
}

// wave is one live computation's bookkeeping.
type wave struct {
	c        uint32
	joinSent int64       // cumulative sends at join: all stamped below c, so white for c
	reported int64       // white receives already folded into the wave's token
	minRed   vtime.VTime // minimum send timestamp since joining (red with respect to c)
}

// NewLedger returns an empty ledger at epoch zero.
func NewLedger() *Ledger { return new(Ledger) }

// Epoch returns the highest wave joined: the outgoing colour stamp.
func (l *Ledger) Epoch() uint32 { return l.epoch }

// OnSend accounts one outgoing event-like packet: stamp it and fold its
// send timestamp into every active wave's red minimum.
//
//nicwarp:hotpath runs for every outgoing event-like packet
func (l *Ledger) OnSend(pkt *proto.Packet) {
	pkt.ColorEpoch = l.epoch
	l.sentTotal++
	for i := len(l.waves) - 1; i >= 0 && pkt.SendTS < l.waves[i].minRed; i-- {
		l.waves[i].minRed = pkt.SendTS
	}
}

// OnRecv accounts one inbound event-like packet by stamp.
//
//nicwarp:hotpath runs for every inbound event-like packet
func (l *Ledger) OnRecv(pkt *proto.Packet) {
	l.recv.Add(pkt.ColorEpoch, 1)
}

// DrainDropped accounts the packets the NIC cancelled in place, counted by
// stamp in the shared window's DroppedWhite, as received — a deliberately
// dropped message will never arrive anywhere, so otherwise the white
// balance would never close and GVT would stall — and empties it.
func (l *Ledger) DrainDropped(dropped *dense.EpochWindow) {
	dropped.MoveTo(&l.recv)
}

// Join enters wave c. Waves are numbered from 1 and must be joined in
// ascending order (the FIFO ring guarantees it); joining an already-joined
// wave is a no-op.
func (l *Ledger) Join(c uint32) {
	if l.Joined(c) {
		return
	}
	if c < l.epoch {
		panic(fmt.Sprintf("gvt: wave %d joined after wave %d (FIFO ring violated)", c, l.epoch))
	}
	if cap(l.waves) == 0 {
		l.waves = l.first[:0]
	}
	l.epoch = c
	l.waves = append(l.waves, wave{c: c, joinSent: l.sentTotal, minRed: vtime.Infinity}) //nicwarp:alloc wave-table growth to a new high-water count of live waves (at most MaxWaves), amortized
}

// Joined reports whether wave c has been joined.
func (l *Ledger) Joined(c uint32) bool { return l.find(c) >= 0 }

// find returns wave c's index in waves, or -1.
func (l *Ledger) find(c uint32) int {
	lo, hi := 0, len(l.waves)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if l.waves[mid].c < c {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(l.waves) && l.waves[lo].c == c {
		return lo
	}
	return -1
}

// live returns wave c's bookkeeping; c must be joined and not retired.
func (l *Ledger) live(c uint32) *wave {
	i := l.find(c)
	if i < 0 {
		panic(fmt.Sprintf("gvt: wave %d is not live", c))
	}
	return &l.waves[i]
}

// Visit folds this LP's contribution into wave c's token: returns the count
// delta (white sends on first visit, minus unreported white receives) and
// the timestamp floor (min of lvt and the wave's red send minimum).
// firstVisit must be true exactly when the LP joined the wave on this token
// arrival.
//
//nicwarp:hotpath runs on every token visit, several per event at GVT_COUNT=1
func (l *Ledger) Visit(c uint32, firstVisit bool, lvt vtime.VTime) (countDelta int64, floor vtime.VTime) {
	w := l.live(c)
	if firstVisit {
		countDelta += w.joinSent
	}
	cur := l.recv.Below(c) // cumulative receives with stamp below c
	countDelta -= cur - w.reported
	w.reported = cur
	floor = vtime.MinV(lvt, w.minRed)
	return countDelta, floor
}

// WhiteSent returns the number of messages this LP sent before joining the
// current wave (all of them white with respect to it).
func (l *Ledger) WhiteSent() int64 { return l.live(l.epoch).joinSent }

// TakeRecvDelta returns the current wave's white receives not yet reported
// to its token and marks them reported.
func (l *Ledger) TakeRecvDelta() int64 {
	d, _ := l.Visit(l.epoch, false, vtime.Infinity)
	return -d
}

// MinRedSend returns the minimum send timestamp among messages sent since
// joining the current wave (Infinity if none).
func (l *Ledger) MinRedSend() vtime.VTime { return l.live(l.epoch).minRed }

// Retire discards wave c's bookkeeping after its computation completes, and
// folds receive stamps no active wave can reference.
//
//nicwarp:hotpath runs once per wave per LP, several per event at GVT_COUNT=1
func (l *Ledger) Retire(c uint32) {
	if i := l.find(c); i >= 0 {
		l.waves = l.waves[:i+copy(l.waves[i:], l.waves[i+1:])]
	}
	// Advance the fold horizon to the oldest wave still active.
	oldest := l.epoch + 1
	if len(l.waves) > 0 {
		oldest = l.waves[0].c
	}
	l.recv.Fold(oldest)
}
