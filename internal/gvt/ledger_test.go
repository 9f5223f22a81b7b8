package gvt

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"nicwarp/internal/dense"
	"nicwarp/internal/proto"
	"nicwarp/internal/vtime"
)

func evPkt(sendTS vtime.VTime) *proto.Packet {
	return &proto.Packet{Kind: proto.KindEvent, SendTS: sendTS}
}

func TestLedgerWhiteBalanceSingleWave(t *testing.T) {
	// Two LPs exchange messages; after all whites are received the global
	// balance closes.
	a, b := NewLedger(), NewLedger()
	// Pre-computation traffic: a sends 3 to b, b receives 2 of them.
	var inTransit []*proto.Packet
	for i := 0; i < 3; i++ {
		p := evPkt(vtime.VTime(10 + i))
		a.OnSend(p)
		inTransit = append(inTransit, p)
	}
	b.OnRecv(inTransit[0])
	b.OnRecv(inTransit[1])
	inTransit = inTransit[2:]

	// Computation 1 starts: both join.
	a.Join(1)
	b.Join(1)
	da, _ := readerVisit(a, true, 100)
	db, _ := readerVisit(b, true, 200)
	count := da + db
	if count != 1 {
		t.Fatalf("initial balance = %d, want 1 (one white in transit)", count)
	}
	// The last white arrives.
	b.OnRecv(inTransit[0])
	db2, _ := readerVisit(b, false, 200)
	count += db2
	if count != 0 {
		t.Fatalf("balance after delivery = %d, want 0", count)
	}
}

// readerVisit is Visit of the current wave spelled with the readers the
// NIC-GVT host half uses: WhiteSent on the first visit, TakeRecvDelta and
// MinRedSend on every visit.
func readerVisit(l *Ledger, first bool, lvt vtime.VTime) (int64, vtime.VTime) {
	var delta int64
	if first {
		delta += l.WhiteSent()
	}
	delta -= l.TakeRecvDelta()
	return delta, vtime.MinV(lvt, l.MinRedSend())
}

func TestLedgerRedMinTracking(t *testing.T) {
	l := NewLedger()
	l.Join(1)
	if l.MinRedSend() != vtime.Infinity {
		t.Fatal("fresh wave must have infinite red min")
	}
	l.OnSend(evPkt(50))
	l.OnSend(evPkt(30))
	l.OnSend(evPkt(70))
	if l.MinRedSend() != 30 {
		t.Fatalf("red min = %v, want 30", l.MinRedSend())
	}
	// Next computation resets the red minimum.
	l.Join(2)
	if l.MinRedSend() != vtime.Infinity {
		t.Fatal("red min must reset on join")
	}
}

func TestLedgerStamps(t *testing.T) {
	l := NewLedger()
	p := evPkt(1)
	l.OnSend(p)
	if p.ColorEpoch != 0 {
		t.Fatalf("stamp = %d, want epoch 0", p.ColorEpoch)
	}
	l.Join(3)
	q := evPkt(2)
	l.OnSend(q)
	if q.ColorEpoch != 3 {
		t.Fatalf("stamp = %d, want epoch 3", q.ColorEpoch)
	}
}

func TestLedgerDroppedCountsAsReceived(t *testing.T) {
	a, b := NewLedger(), NewLedger()
	p := evPkt(5)
	a.OnSend(p)
	a.Join(1)
	b.Join(1)
	da, _ := readerVisit(a, true, 10)
	db, _ := readerVisit(b, true, 10)
	if da+db != 1 {
		t.Fatalf("balance = %d", da+db)
	}
	// The NIC drops the packet in place; the sender's ledger accounts it.
	a.recv.Add(p.ColorEpoch, 1)
	da2, _ := readerVisit(a, false, 10)
	if da+db+da2 != 0 {
		t.Fatal("dropped packet did not close the balance")
	}
}

func TestWaveLedgerConcurrentWaves(t *testing.T) {
	l := new(Ledger)
	// Three sends before any wave: white for every wave.
	for i := 0; i < 3; i++ {
		l.OnSend(evPkt(vtime.VTime(i)))
	}
	l.Join(1)
	d1, _ := l.Visit(1, true, 100)
	if d1 != 3 {
		t.Fatalf("wave 1 first visit delta = %d, want 3", d1)
	}
	// Two more sends: white for wave 2, red for wave 1.
	l.OnSend(evPkt(40))
	l.OnSend(evPkt(20))
	l.Join(2)
	d2, floor2 := l.Visit(2, true, 100)
	if d2 != 5 {
		t.Fatalf("wave 2 first visit delta = %d, want 5", d2)
	}
	if floor2 != 100 {
		t.Fatalf("wave 2 floor = %v (red min must reset per wave)", floor2)
	}
	// Wave 1 revisit folds its red minimum (20 < lvt).
	_, floor1 := l.Visit(1, false, 100)
	if floor1 != 20 {
		t.Fatalf("wave 1 floor = %v, want 20", floor1)
	}
	if len(l.waves) != 2 {
		t.Fatalf("active waves = %d", len(l.waves))
	}
	l.Retire(1)
	l.Retire(2)
	if len(l.waves) != 0 {
		t.Fatal("waves not retired")
	}
}

func TestWaveLedgerRecvAccounting(t *testing.T) {
	l := new(Ledger)
	white := evPkt(1) // stamp 0
	l.Join(1)
	l.OnRecv(white) // white wrt wave 1
	d, _ := l.Visit(1, true, 10)
	if d != -1 {
		t.Fatalf("delta = %d, want -1 (one white received, none sent)", d)
	}
	// Delta consumed; next visit reports nothing new.
	d2, _ := l.Visit(1, false, 10)
	if d2 != 0 {
		t.Fatalf("second delta = %d, want 0", d2)
	}
}

func TestWaveLedgerFoldAfterRetire(t *testing.T) {
	l := new(Ledger)
	l.Join(1)
	l.OnRecv(evPkt(1)) // stamp 0
	l.Visit(1, true, 10)
	l.Retire(1)
	// A straggler with an ancient stamp arrives after the fold horizon
	// moved; it must still count as white for the next wave.
	old := evPkt(2)
	old.ColorEpoch = 0
	l.OnRecv(old)
	l.Join(2)
	d, _ := l.Visit(2, true, 10)
	if d != -2 {
		t.Fatalf("delta = %d, want -2 (both old receives white for wave 2)", d)
	}
}

func TestWaveLedgerJoinValidation(t *testing.T) {
	l := new(Ledger)
	l.Join(2)
	l.Join(2) // no-op
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-order join")
		}
	}()
	l.Join(1)
}

func TestWaveLedgerVisitUnjoinedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	new(Ledger).Visit(5, true, 0)
}

// TestWaveLedgerBalanceProperty: for a random message pattern between two
// LPs and any wave join points, once every sent message is received the
// accumulated wave balance is zero.
func TestWaveLedgerBalanceProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		a, b := new(Ledger), new(Ledger)
		var transit []*proto.Packet
		wave := uint32(0)
		total := int64(0)
		visited := false
		for _, op := range ops {
			switch op % 4 {
			case 0: // a sends
				p := evPkt(vtime.VTime(op))
				a.OnSend(p)
				transit = append(transit, p)
			case 1: // b receives oldest
				if len(transit) > 0 {
					b.OnRecv(transit[0])
					transit = transit[1:]
				}
			case 2: // start a new wave: both join and first-visit
				if visited {
					continue // one wave at a time in this property
				}
				wave++
				a.Join(wave)
				b.Join(wave)
				da, _ := a.Visit(wave, true, 1)
				db, _ := b.Visit(wave, true, 1)
				total = da + db
				visited = true
			case 3: // revisit: fold deltas
				if visited {
					da, _ := a.Visit(wave, false, 1)
					db, _ := b.Visit(wave, false, 1)
					total += da + db
				}
			}
		}
		if !visited {
			return true
		}
		// Drain all in-transit messages and fold the final deltas: the
		// balance must close.
		for _, p := range transit {
			b.OnRecv(p)
		}
		da, _ := a.Visit(wave, false, 1)
		db, _ := b.Visit(wave, false, 1)
		total += da + db
		return total == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// mapWaveLedger is the hash-map multi-wave ledger this package shipped
// before the ordered-slice one, kept verbatim as the reference the
// differential test below drives in lockstep with it: per-wave state in
// three maps keyed by epoch, receive counts in a fourth keyed by stamp,
// every operation a map walk.
type mapWaveLedger struct {
	epoch     uint32 // highest wave joined; the outgoing stamp
	sentTotal int64

	recvOld     int64 // receives with stamp below every active wave
	recvByStamp map[uint32]int64
	oldestLive  uint32 // stamps below this are foldable

	joinSent map[uint32]int64
	reported map[uint32]int64
	minRed   map[uint32]vtime.VTime
}

// newMapWaveLedger returns an empty ledger at epoch zero.
func newMapWaveLedger() *mapWaveLedger {
	return &mapWaveLedger{
		recvByStamp: make(map[uint32]int64),
		joinSent:    make(map[uint32]int64),
		reported:    make(map[uint32]int64),
		minRed:      make(map[uint32]vtime.VTime),
	}
}

// Epoch returns the outgoing colour stamp (highest wave joined).
func (l *mapWaveLedger) Epoch() uint32 { return l.epoch }

// OnSend accounts one outgoing event-like packet: stamp it and fold its
// send timestamp into every active wave's red minimum.
func (l *mapWaveLedger) OnSend(pkt *proto.Packet) {
	pkt.ColorEpoch = l.epoch
	l.sentTotal++
	for c, m := range l.minRed {
		if pkt.SendTS < m {
			l.minRed[c] = pkt.SendTS
		}
	}
}

// OnRecv accounts one inbound event-like packet by stamp.
func (l *mapWaveLedger) OnRecv(pkt *proto.Packet) {
	l.account(pkt.ColorEpoch, 1)
}

// OnDropped accounts a NIC-cancelled packet as received (see
// Ledger.DrainDropped).
func (l *mapWaveLedger) OnDropped(stamp uint32, n int64) {
	l.account(stamp, n)
}

func (l *mapWaveLedger) account(stamp uint32, n int64) {
	if stamp < l.oldestLive {
		l.recvOld += n
	} else {
		l.recvByStamp[stamp] += n
	}
}

// Join enters wave c. Waves are numbered from 1 and must be joined in
// ascending order (the FIFO ring guarantees it); joining an already-joined
// wave is a no-op.
func (l *mapWaveLedger) Join(c uint32) {
	if l.Joined(c) {
		return
	}
	if c < l.epoch {
		panic(fmt.Sprintf("gvt: wave %d joined after wave %d (FIFO ring violated)", c, l.epoch))
	}
	l.epoch = c
	l.joinSent[c] = l.sentTotal
	l.reported[c] = 0
	l.minRed[c] = vtime.Infinity
}

// Joined reports whether wave c has been joined.
func (l *mapWaveLedger) Joined(c uint32) bool {
	_, ok := l.joinSent[c]
	return ok
}

// whiteRecv returns cumulative receives with stamp below c.
func (l *mapWaveLedger) whiteRecv(c uint32) int64 {
	n := l.recvOld
	for s, cnt := range l.recvByStamp {
		if s < c {
			n += cnt
		}
	}
	return n
}

// Visit folds this LP's contribution into wave c's token: returns the count
// delta (white sends on first visit, minus unreported white receives) and
// the timestamp floor (min of lvt and the wave's red send minimum).
// firstVisit must be true exactly when the LP joined the wave on this token
// arrival.
func (l *mapWaveLedger) Visit(c uint32, firstVisit bool, lvt vtime.VTime) (countDelta int64, floor vtime.VTime) {
	if !l.Joined(c) {
		panic(fmt.Sprintf("gvt: Visit of unjoined wave %d", c))
	}
	if firstVisit {
		countDelta += l.joinSent[c]
	}
	cur := l.whiteRecv(c)
	countDelta -= cur - l.reported[c]
	l.reported[c] = cur
	floor = vtime.MinV(lvt, l.minRed[c])
	return countDelta, floor
}

// Retire discards wave c's bookkeeping after its computation completes, and
// folds receive stamps no active wave can reference.
func (l *mapWaveLedger) Retire(c uint32) {
	delete(l.joinSent, c)
	delete(l.reported, c)
	delete(l.minRed, c)
	// Advance the fold horizon to the oldest wave still active.
	oldest := l.epoch + 1
	for w := range l.joinSent {
		if w < oldest {
			oldest = w
		}
	}
	if oldest > l.oldestLive {
		l.oldestLive = oldest
		for s, cnt := range l.recvByStamp {
			if s < l.oldestLive {
				l.recvOld += cnt
				delete(l.recvByStamp, s)
			}
		}
	}
}

// ActiveWaves returns the number of waves with live bookkeeping.
func (l *mapWaveLedger) ActiveWaves() int { return len(l.joinSent) }

// waveOracle drives a Ledger and the map-based reference through the
// same schedule and fails on the first observable difference.
type waveOracle struct {
	t    *testing.T
	got  *Ledger
	want *mapWaveLedger
	step int
}

func (o *waveOracle) check(op string) {
	o.t.Helper()
	if o.got.epoch != o.want.Epoch() || len(o.got.waves) != o.want.ActiveWaves() {
		o.t.Fatalf("step %d after %s: epoch/active = %d/%d, reference %d/%d", o.step, op,
			o.got.epoch, len(o.got.waves), o.want.Epoch(), o.want.ActiveWaves())
	}
	// The early exit in OnSend is only sound while the red minima are
	// non-decreasing from the oldest wave to the youngest.
	for i := 1; i < len(o.got.waves); i++ {
		a, b := o.got.waves[i-1], o.got.waves[i]
		if a.c >= b.c || a.minRed > b.minRed {
			o.t.Fatalf("step %d after %s: waves out of order: %+v before %+v", o.step, op, a, b)
		}
	}
	for _, w := range o.got.waves {
		if m := o.want.minRed[w.c]; m != w.minRed {
			o.t.Fatalf("step %d after %s: wave %d minRed = %v, reference %v", o.step, op, w.c, w.minRed, m)
		}
	}
}

// TestWaveLedgerMatchesMapReference is the differential oracle for the
// ordered-slice ledger: seeded random schedules of ascending joins,
// out-of-order retires (of live, retired and never-joined waves), re-joins
// of a retired epoch, receives stamped below the fold horizon / inside the
// window / ahead of the LP's own epoch, bursts of NIC drops drained through
// a DroppedWhite window, and visits with and without firstVisit — with
// identical (countDelta, floor), Epoch and ActiveWaves demanded at every
// step.
func TestWaveLedgerMatchesMapReference(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		o := &waveOracle{t: t, got: new(Ledger), want: newMapWaveLedger()}
		var dropped dense.EpochWindow // the shared window's DroppedWhite
		var live []uint32             // joined and not yet retired, ascending
		maxWaves := 1 + rng.Intn(64)
		for o.step = 0; o.step < 4000; o.step++ {
			epoch := o.want.Epoch()
			switch op := rng.Intn(100); {
			case op < 35:
				got := evPkt(vtime.VTime(rng.Intn(1000)))
				want := evPkt(got.SendTS)
				o.got.OnSend(got)
				o.want.OnSend(want)
				if got.ColorEpoch != want.ColorEpoch {
					t.Fatalf("seed %d step %d: OnSend stamped %d, reference %d", seed, o.step, got.ColorEpoch, want.ColorEpoch)
				}
				o.check("OnSend")
			case op < 60:
				// Stamps range from far below the horizon to a few epochs
				// ahead of this LP (a sender that joined newer waves first).
				p := evPkt(0)
				p.ColorEpoch = uint32(rng.Intn(int(epoch) + 4))
				o.got.OnRecv(p)
				o.want.OnRecv(p)
				o.check("OnRecv")
			case op < 68:
				for n := 1 + rng.Intn(5); n > 0; n-- {
					stamp, k := uint32(rng.Intn(int(epoch)+2)), int64(1+rng.Intn(3))
					dropped.Add(stamp, k)
					o.want.OnDropped(stamp, k)
				}
				o.got.DrainDropped(&dropped)
				o.check("DrainDropped")
			case op < 80:
				if len(live) >= maxWaves {
					continue
				}
				// Usually the next epoch, sometimes a jump, sometimes the
				// current epoch again: a no-op while it is live, a re-join
				// once it has been retired.
				c := epoch + uint32(rng.Intn(3))
				if c == 0 {
					c = 1
				}
				first := !o.want.Joined(c)
				if o.got.Joined(c) == first {
					t.Fatalf("seed %d step %d: Joined(%d) = %v, reference %v", seed, o.step, c, !first, !first)
				}
				o.got.Join(c)
				o.want.Join(c)
				if first {
					live = append(live, c)
				}
				o.check("Join")
				o.visit(c, first, rng)
			case op < 92:
				if len(live) == 0 {
					continue
				}
				o.visit(live[rng.Intn(len(live))], false, rng)
			default:
				// Retire a live wave out of order, or one that is not live.
				c := uint32(rng.Intn(int(epoch) + 2))
				if len(live) > 0 && rng.Intn(4) > 0 {
					i := rng.Intn(len(live))
					c = live[i]
					live = append(live[:i], live[i+1:]...)
				} else if o.want.Joined(c) {
					continue
				}
				o.got.Retire(c)
				o.want.Retire(c)
				o.check("Retire")
			}
		}
	}
}

func (o *waveOracle) visit(c uint32, first bool, rng *rand.Rand) {
	o.t.Helper()
	lvt := vtime.VTime(rng.Intn(1000))
	gd, gf := o.got.Visit(c, first, lvt)
	wd, wf := o.want.Visit(c, first, lvt)
	if gd != wd || gf != wf {
		o.t.Fatalf("step %d: Visit(%d, %v, %v) = (%d, %v), reference (%d, %v)", o.step, c, first, lvt, gd, gf, wd, wf)
	}
	o.check("Visit")
}

// TestWaveLedgerSteadyStateAllocatesNothing: with the ledger pinned at
// MaxWaves live waves (the raid-hostgvt regime) the per-packet and
// per-token operations allocate nothing.
func TestWaveLedgerSteadyStateAllocatesNothing(t *testing.T) {
	l := new(Ledger)
	for c := uint32(1); c <= DefaultMaxWaves; c++ {
		l.Join(c)
	}
	send, recv := evPkt(0), evPkt(0)
	next := uint32(DefaultMaxWaves)
	allocs := testing.AllocsPerRun(1000, func() {
		send.SendTS = vtime.VTime(next % 997)
		l.OnSend(send)
		recv.ColorEpoch = next - uint32(next%7)
		l.OnRecv(recv)
		l.Visit(next-DefaultMaxWaves/2, false, 500)
		// One wave completes and the next starts, as at the root.
		l.Retire(next - DefaultMaxWaves + 1)
		next++
		l.Join(next)
		l.Visit(next, true, 500)
	})
	if allocs != 0 {
		t.Fatalf("steady-state OnSend/OnRecv/Visit/Retire/Join allocate %.1f times per round, want 0", allocs)
	}
	if len(l.waves) != DefaultMaxWaves {
		t.Fatalf("active waves = %d, want %d", len(l.waves), DefaultMaxWaves)
	}
}
