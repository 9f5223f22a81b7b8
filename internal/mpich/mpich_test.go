package mpich

import (
	"testing"
	"testing/quick"

	"nicwarp/internal/proto"
	"nicwarp/internal/vtime"
)

func ev(src, dst int32) *proto.Packet {
	return &proto.Packet{Kind: proto.KindEvent, SrcNode: src, DstNode: dst, Seq: 1}
}

func withBuf(c Config) Config {
	if c.SendBufferPackets == 0 {
		c.SendBufferPackets = 1000
	}
	return c
}

func newPair(t *testing.T, cfg Config) (*Endpoint, *Endpoint, *[]*proto.Packet, *[]*proto.Packet) {
	t.Helper()
	cfg = withBuf(cfg)
	var at0, at1 []*proto.Packet
	e0 := New(0, cfg, func(p *proto.Packet) { at0 = append(at0, p) })
	e1 := New(1, cfg, func(p *proto.Packet) { at1 = append(at1, p) })
	return e0, e1, &at0, &at1
}

func TestWindowBlocksExcessTraffic(t *testing.T) {
	cfg := Config{Window: 3, ReturnThreshold: 2}
	e0, _, out0, _ := newPair(t, cfg)
	for i := 0; i < 5; i++ {
		e0.Send(ev(0, 1))
	}
	if len(*out0) != 3 {
		t.Fatalf("transmitted %d, want window of 3", len(*out0))
	}
	if e0.WaitingCount() != 2 {
		t.Fatalf("waiting = %d, want 2", e0.WaitingCount())
	}
	if e0.Blocked.Value() != 2 {
		t.Fatalf("blocked = %d", e0.Blocked.Value())
	}
}

func TestCreditReturnUnblocks(t *testing.T) {
	cfg := Config{Window: 2, ReturnThreshold: 2}
	e0, e1, out0, _ := newPair(t, cfg)
	for i := 0; i < 4; i++ {
		e0.Send(ev(0, 1))
	}
	if len(*out0) != 2 {
		t.Fatalf("transmitted %d", len(*out0))
	}
	// Receiver consumes both and crosses the return threshold.
	var reply *proto.Packet
	for _, p := range *out0 {
		if r := e1.OnReceive(p); r != nil {
			reply = r
		}
	}
	if reply == nil {
		t.Fatal("no explicit credit message at threshold")
	}
	if reply.Kind != proto.KindCredit || reply.Credits != 2 {
		t.Fatalf("credit reply: %+v", reply)
	}
	// Sender books the credit; waiting packets drain.
	e0.OnReceive(reply)
	if len(*out0) != 4 {
		t.Fatalf("after credit return, transmitted %d, want 4", len(*out0))
	}
	if e0.WaitingCount() != 0 {
		t.Fatal("packets still waiting")
	}
}

func TestPiggybackedCreditReturn(t *testing.T) {
	cfg := Config{Window: 8, ReturnThreshold: 5}
	e0, e1, out0, out1 := newPair(t, cfg)
	// One event 0->1; threshold not reached, no explicit credit.
	e0.Send(ev(0, 1))
	if r := e1.OnReceive((*out0)[0]); r != nil {
		t.Fatal("premature explicit credit")
	}
	if e1.OwedTo(0) != 1 {
		t.Fatalf("owed = %d", e1.OwedTo(0))
	}
	// Reverse traffic 1->0 carries the owed credit.
	e1.Send(ev(1, 0))
	back := (*out1)[0]
	if back.Credits != 1 {
		t.Fatalf("piggybacked credits = %d, want 1", back.Credits)
	}
	before := e0.CreditsAvailable(1)
	e0.OnReceive(back)
	if e0.CreditsAvailable(1) != before+1 {
		t.Fatal("credit not restored")
	}
}

func TestControlTrafficBypassesFlowControl(t *testing.T) {
	cfg := Config{Window: 1, ReturnThreshold: 1}
	e0, _, out0, _ := newPair(t, cfg)
	e0.Send(ev(0, 1)) // consumes the only credit
	for i := 0; i < 3; i++ {
		e0.Send(&proto.Packet{Kind: proto.KindGVTControl, SrcNode: 0, DstNode: 1})
	}
	if len(*out0) != 4 {
		t.Fatalf("control traffic blocked: %d transmitted", len(*out0))
	}
}

// TestCreditConservationProperty: under any interleaving of sends and
// deliveries with no drops, credits outstanding plus credits held plus
// credits owed equals the window.
func TestCreditConservationProperty(t *testing.T) {
	f := func(ops []bool) bool {
		cfg := withBuf(Config{Window: 5, ReturnThreshold: 3})
		var wire []*proto.Packet // 0 -> 1 in flight
		e0 := New(0, cfg, func(p *proto.Packet) { wire = append(wire, p) })
		var replies []*proto.Packet
		e1 := New(1, cfg, func(p *proto.Packet) { replies = append(replies, p) })
		for _, send := range ops {
			if send {
				e0.Send(ev(0, 1))
			} else if len(wire) > 0 {
				p := wire[0]
				wire = wire[1:]
				if r := e1.OnReceive(p); r != nil {
					e0.OnReceive(r)
				}
			}
			// Conservation: available + in flight + owed by receiver +
			// waiting-consumed... available credits plus consumed-but-not-
			// returned must equal the window.
			inFlight := len(wire)
			total := e0.CreditsAvailable(1) + inFlight + e1.OwedTo(0)
			if total != cfg.Window {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Window: 0, ReturnThreshold: 1, SendBufferPackets: 10},
		{Window: 4, ReturnThreshold: 0, SendBufferPackets: 10},
		{Window: 4, ReturnThreshold: 5, SendBufferPackets: 10},
		{Window: 4, ReturnThreshold: 2, SendBufferPackets: 0},
	}
	for _, c := range bad {
		if c.Validate() == nil {
			t.Fatalf("config %+v should be invalid", c)
		}
	}
	if DefaultConfig().Validate() != nil {
		t.Fatal("default config invalid")
	}
}

func TestNewValidatesArgs(t *testing.T) {
	for _, f := range []func(){
		func() { New(0, Config{}, func(*proto.Packet) {}) },
		func() { New(0, DefaultConfig(), nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestRefundDrainsWaiting(t *testing.T) {
	cfg := withBuf(Config{Window: 1, ReturnThreshold: 1})
	var out []*proto.Packet
	e := New(0, cfg, func(p *proto.Packet) { out = append(out, p) })
	e.Send(ev(0, 1)) // consumes the only credit
	e.Send(ev(0, 1)) // waits
	if e.WaitingCount() != 1 {
		t.Fatalf("waiting = %d", e.WaitingCount())
	}
	// The NIC dropped the first packet in place; the refund releases the
	// second.
	e.Refund(1, 1)
	if e.WaitingCount() != 0 || len(out) != 2 {
		t.Fatalf("waiting=%d out=%d", e.WaitingCount(), len(out))
	}
	if e.Refunded.Value() != 1 {
		t.Fatal("refund not counted")
	}
	e.Refund(1, 0) // no-op
}

func TestBookOwedThreshold(t *testing.T) {
	cfg := withBuf(Config{Window: 8, ReturnThreshold: 3})
	e := New(0, cfg, func(*proto.Packet) {})
	if r := e.BookOwed(2, 2); r != nil {
		t.Fatal("below threshold must not reply")
	}
	r := e.BookOwed(2, 1)
	if r == nil || r.Kind != proto.KindCredit || r.Credits != 3 || r.DstNode != 2 {
		t.Fatalf("reply = %+v", r)
	}
	if e.OwedTo(2) != 0 {
		t.Fatal("owed not cleared")
	}
	if e.BookOwed(2, 0) != nil {
		t.Fatal("zero booking must be a no-op")
	}
}

// TestCreditMessageTravelsInOnePacket: an explicit credit message belongs to
// the endpoint that received it, which sends the same packet out as its own
// next credit reply. Two endpoints trading events at a return threshold of
// one therefore bounce one credit packet between them, and a steady-state
// exchange allocates nothing.
func TestCreditMessageTravelsInOnePacket(t *testing.T) {
	cfg := withBuf(Config{Window: 4, ReturnThreshold: 1})
	e0 := New(0, cfg, func(*proto.Packet) {})
	e1 := New(1, cfg, func(*proto.Packet) {})
	grant := e1.OnReceive(ev(0, 1))
	if grant == nil || grant.Kind != proto.KindCredit {
		t.Fatalf("credit reply = %+v, want an explicit credit message", grant)
	}
	if e0.OnReceive(grant) != nil {
		t.Fatal("a credit message owes nothing back")
	}
	reply := e0.OnReceive(ev(1, 0))
	if reply != grant {
		t.Fatalf("the next credit reply is %p, not the credit packet received (%p)", reply, grant)
	}
	if reply.SrcNode != 0 || reply.DstNode != 1 || reply.Credits != 1 {
		t.Fatalf("reused credit reply = %+v, want 1 credit from 0 to 1", reply)
	}

	// Loopback: each endpoint's wire delivers into its peer, which sends any
	// credit reply back through its own stack.
	var a, b *Endpoint
	a = New(0, cfg, func(p *proto.Packet) {
		if r := b.OnReceive(p); r != nil {
			b.Send(r)
		}
	})
	b = New(1, cfg, func(p *proto.Packet) {
		if r := a.OnReceive(p); r != nil {
			a.Send(r)
		}
	})
	ab, ba := ev(0, 1), ev(1, 0)
	exchange := func() {
		a.Send(ab)
		b.Send(ba)
	}
	exchange()
	if allocs := testing.AllocsPerRun(100, exchange); allocs != 0 {
		t.Fatalf("a steady-state event exchange allocates %.1f times, want 0", allocs)
	}
	if a.CreditMsgs.Value() < 100 || b.CreditMsgs.Value() < 100 {
		t.Fatalf("credit messages sent %d and %d: the exchange did not return credit explicitly",
			a.CreditMsgs.Value(), b.CreditMsgs.Value())
	}
	if a.CreditsAvailable(1) != cfg.Window || b.CreditsAvailable(0) != cfg.Window {
		t.Fatalf("windows %d and %d after the exchange, want %d", a.CreditsAvailable(1), b.CreditsAvailable(0), cfg.Window)
	}
}

func TestDispatchSanitizesForwardedPackets(t *testing.T) {
	cfg := withBuf(Config{Window: 8, ReturnThreshold: 4})
	var out []*proto.Packet
	e := New(0, cfg, func(p *proto.Packet) { out = append(out, p) })
	// A forwarded GVT token carries the stale credit piggyback of its
	// previous hop; dispatch must scrub it.
	stale := &proto.Packet{Kind: proto.KindGVTControl, SrcNode: 0, DstNode: 1, Credits: 9}
	e.Send(stale)
	if out[0].Credits != 0 {
		t.Fatalf("stale piggyback not scrubbed: %+v", out[0])
	}
	// But an explicit credit message's payload survives.
	grant := &proto.Packet{Kind: proto.KindCredit, SrcNode: 0, DstNode: 1, Credits: 7}
	e.Send(grant)
	if out[1].Credits != 7 {
		t.Fatalf("credit grant clobbered: %+v", out[1])
	}
}

func TestCongested(t *testing.T) {
	cfg := Config{Window: 1, ReturnThreshold: 1, SendBufferPackets: 2}
	e := New(0, cfg, func(*proto.Packet) {})
	if e.Congested() {
		t.Fatal("fresh endpoint congested")
	}
	e.Send(ev(0, 1)) // transmitted
	e.Send(ev(0, 1)) // waits (1)
	e.Send(ev(0, 1)) // waits (2) -> congested
	if !e.Congested() {
		t.Fatal("full send buffer must report congestion")
	}
}

// TestRefundTable drives the NIC-drop refund path through a table of
// window states: the fault plane's drop scenarios refund the sender's
// credit for packets the NIC destroyed in place (they consumed no receiver
// buffer), and the refund must both restore the window and drain any
// backlog the closed window stranded.
func TestRefundTable(t *testing.T) {
	cases := []struct {
		name         string
		window       int
		sends        int // event packets submitted before the refund
		refund       int
		wantSentPre  int // transmitted before the refund
		wantSentPost int // transmitted after the refund
		wantWaiting  int // still buffered after the refund
		wantCredits  int // remaining credit after the refund
	}{
		{
			name:   "refund with open window just restores credit",
			window: 4, sends: 2, refund: 2,
			wantSentPre: 2, wantSentPost: 2, wantWaiting: 0, wantCredits: 4,
		},
		{
			name:   "refund reopens a closed window and drains the backlog",
			window: 2, sends: 4, refund: 2,
			wantSentPre: 2, wantSentPost: 4, wantWaiting: 0, wantCredits: 0,
		},
		{
			name:   "partial refund drains part of the backlog",
			window: 2, sends: 5, refund: 1,
			wantSentPre: 2, wantSentPost: 3, wantWaiting: 2, wantCredits: 0,
		},
		{
			name:   "refund exceeding the backlog leaves spare credit",
			window: 1, sends: 2, refund: 3,
			wantSentPre: 1, wantSentPost: 2, wantWaiting: 0, wantCredits: 2,
		},
		{
			name:   "zero refund is a no-op",
			window: 1, sends: 2, refund: 0,
			wantSentPre: 1, wantSentPost: 1, wantWaiting: 1, wantCredits: 0,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := withBuf(Config{Window: tc.window, ReturnThreshold: tc.window})
			var out []*proto.Packet
			e := New(0, cfg, func(p *proto.Packet) { out = append(out, p) })
			for i := 0; i < tc.sends; i++ {
				e.Send(ev(0, 1))
			}
			if len(out) != tc.wantSentPre {
				t.Fatalf("pre-refund transmitted %d, want %d", len(out), tc.wantSentPre)
			}
			e.Refund(1, tc.refund)
			if len(out) != tc.wantSentPost {
				t.Errorf("post-refund transmitted %d, want %d", len(out), tc.wantSentPost)
			}
			if got := e.WaitingCount(); got != tc.wantWaiting {
				t.Errorf("waiting = %d, want %d", got, tc.wantWaiting)
			}
			if got := e.CreditsAvailable(1); got != tc.wantCredits {
				t.Errorf("credits = %d, want %d", got, tc.wantCredits)
			}
			if got := e.Refunded.Value(); got != int64(tc.refund) {
				t.Errorf("Refunded = %d, want %d", got, tc.refund)
			}
		})
	}
}

// TestBookOwedTable covers the receiver-side half of the stranded-credit
// repair: owed credit re-booked for drops accumulates toward the return
// threshold exactly like organically consumed packets, and the explicit
// credit message fires the moment the threshold is crossed.
func TestBookOwedTable(t *testing.T) {
	cases := []struct {
		name      string
		threshold int
		bookings  []int
		wantReply int32 // credit carried by the last booking's reply; 0 = nil
		wantOwed  int   // owed balance remaining after the last booking
	}{
		{name: "below threshold accumulates", threshold: 4, bookings: []int{1, 2}, wantOwed: 3},
		{name: "exact threshold fires", threshold: 3, bookings: []int{1, 2}, wantReply: 3},
		{name: "overshoot returns the whole balance", threshold: 3, bookings: []int{2, 4}, wantReply: 6},
		{name: "negative booking ignored", threshold: 2, bookings: []int{1, -5}, wantOwed: 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := withBuf(Config{Window: 8, ReturnThreshold: tc.threshold})
			e := New(1, cfg, func(*proto.Packet) {})
			var last *proto.Packet
			for _, n := range tc.bookings {
				last = e.BookOwed(0, n)
			}
			if tc.wantReply == 0 {
				if last != nil {
					t.Fatalf("unexpected credit reply %+v", last)
				}
			} else {
				if last == nil {
					t.Fatal("expected a credit reply")
				}
				if last.Kind != proto.KindCredit || last.Credits != tc.wantReply {
					t.Fatalf("reply = %+v, want %d credits", last, tc.wantReply)
				}
				if last.SrcNode != 1 || last.DstNode != 0 {
					t.Fatalf("reply addressed %d->%d, want 1->0", last.SrcNode, last.DstNode)
				}
			}
			if got := e.OwedTo(0); got != tc.wantOwed {
				t.Errorf("owed = %d, want %d", got, tc.wantOwed)
			}
		})
	}
}

// TestRefundConservesGlobalCredit is the pairwise conservation property the
// invariant checker enforces at quiescence, exercised directly through the
// refund path: after drops are refunded and all owed credit returned,
// sender credit plus in-flight debt equals the configured window.
func TestRefundConservesGlobalCredit(t *testing.T) {
	cfg := withBuf(Config{Window: 4, ReturnThreshold: 2})
	e0, e1, out0, _ := newPair(t, cfg)
	// Four sends exhaust the window; the NIC "drops" two of them in place.
	for i := 0; i < 4; i++ {
		e0.Send(ev(0, 1))
	}
	delivered := (*out0)[:2]
	e0.Refund(1, 2)
	// The two survivors arrive; receiver owes 2 and crosses the threshold.
	var reply *proto.Packet
	for _, p := range delivered {
		if r := e1.OnReceive(p); r != nil {
			reply = r
		}
	}
	if reply == nil {
		t.Fatal("receiver never returned credit")
	}
	e0.OnReceive(reply)
	if got := e0.CreditsAvailable(1); got != cfg.Window {
		t.Fatalf("window not conserved: credits = %d, want %d", got, cfg.Window)
	}
	if e1.OwedTo(0) != 0 {
		t.Fatalf("receiver still owes %d", e1.OwedTo(0))
	}
}

// TestPeerTablesGrowOnDemand: per-peer state lives in tables indexed by
// node id and grown to the highest peer touched. Reaching a peer beyond
// every one seen so far — as sender, receiver or refund target, in any
// order — must behave as the maps the tables replaced did: a full window,
// nothing owed, and no effect on peers already in the tables.
func TestPeerTablesGrowOnDemand(t *testing.T) {
	cfg := withBuf(Config{Window: 2, ReturnThreshold: 2})
	for _, tc := range []struct {
		name  string
		peers []int32 // touched in this order
	}{
		{"ascending", []int32{1, 5, 900}},
		{"descending", []int32{900, 5, 1}},
		{"revisit", []int32{5, 1023, 5, 7}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out []*proto.Packet
			e := New(0, cfg, func(p *proto.Packet) { out = append(out, p) })
			// Untouched peers read as fresh without growing anything.
			if e.OwedTo(1023) != 0 || len(e.TouchedPeers()) != 0 {
				t.Fatal("fresh endpoint must hold no peer state")
			}
			spent := map[int32]int{}
			for _, peer := range tc.peers {
				if got, want := e.CreditsAvailable(peer), cfg.Window-spent[peer]; got != want {
					t.Fatalf("credits toward %d = %d, want %d", peer, got, want)
				}
				if spent[peer] < cfg.Window {
					e.Send(ev(0, peer))
					spent[peer]++
				}
				// One packet from the peer: one credit owed back to it.
				in := ev(peer, 0)
				if reply := e.OnReceive(in); reply != nil {
					t.Fatalf("peer %d: explicit credit below the threshold", peer)
				}
			}
			for peer, n := range spent {
				if e.CreditsAvailable(peer) != cfg.Window-n {
					t.Fatalf("credits toward %d = %d, want %d", peer, e.CreditsAvailable(peer), cfg.Window-n)
				}
				if e.OwedTo(peer) == 0 {
					t.Fatalf("nothing owed to %d after receiving from it", peer)
				}
			}
			// A refund to a peer beyond every table opens its window first.
			e.Refund(2000, 1)
			if got := e.CreditsAvailable(2000); got != cfg.Window+1 {
				t.Fatalf("credits toward 2000 after refund = %d, want %d", got, cfg.Window+1)
			}
			peers := e.TouchedPeers()
			if len(peers) != 2001 || peers[0] != 0 || peers[2000] != 2000 {
				t.Fatalf("TouchedPeers spans %d ids, want 0..2000", len(peers))
			}
			// A broadcast addresses no peer: it passes through carrying no
			// credit and touching no table.
			bc := &proto.Packet{Kind: proto.KindGVTBroadcast, SrcNode: 0, DstNode: -1}
			e.Send(bc)
			if out[len(out)-1] != bc || bc.Credits != 0 {
				t.Fatal("broadcast must pass through without a credit piggyback")
			}
		})
	}
}

// TestDrainReusesWaitingStorage: packets stalled for credit are released in
// FIFO order across partial drains, and draining a queue keeps its storage
// for the next stall instead of dropping it.
func TestDrainReusesWaitingStorage(t *testing.T) {
	cfg := withBuf(Config{Window: 1, ReturnThreshold: 1})
	var out []*proto.Packet
	e := New(0, cfg, func(p *proto.Packet) { out = append(out, p) })
	stall := func(n int) []*proto.Packet {
		pkts := make([]*proto.Packet, n)
		for i := range pkts {
			pkts[i] = ev(0, 4)
			e.Send(pkts[i])
		}
		return pkts
	}
	first := stall(5) // one travels, four wait
	e.Refund(4, 2)
	e.Refund(4, 2)
	if e.WaitingCount() != 0 || len(out) != 5 {
		t.Fatalf("waiting %d, transmitted %d after full refund", e.WaitingCount(), len(out))
	}
	for i, p := range first {
		if out[i] != p {
			t.Fatalf("packet %d left out of FIFO order", i)
		}
	}
	if e.PendingMin() != vtime.Infinity {
		t.Fatal("a drained queue must hold no pending timestamp")
	}
	allocs := testing.AllocsPerRun(100, func() {
		out = out[:0]
		for _, p := range first[:4] {
			e.Send(p) // no credit left: all wait
		}
		e.Refund(4, 4)
		// The refunded credits were spent again by the released packets.
	})
	if allocs != 0 {
		t.Fatalf("stall-and-drain in steady state allocates %.1f times, want 0", allocs)
	}
}

// TestPartialDrainsKeepPerDestinationOrder: packets stalled toward two
// destinations, interleaved, are released in each destination's send order
// across two partial drains per destination, and a drain toward one
// destination releases nothing toward the other.
func TestPartialDrainsKeepPerDestinationOrder(t *testing.T) {
	cfg := withBuf(Config{Window: 1, ReturnThreshold: 1})
	var out []*proto.Packet
	e := New(0, cfg, func(p *proto.Packet) { out = append(out, p) })
	sent := map[int32][]*proto.Packet{}
	for i := 0; i < 6; i++ {
		for _, dst := range []int32{2, 5} {
			p := ev(0, dst)
			p.SendTS = vtime.VTime(10*i + int(dst))
			sent[dst] = append(sent[dst], p)
			e.Send(p)
		}
	}
	// One packet per destination traveled; five wait behind each.
	if len(out) != 2 || e.WaitingCount() != 10 {
		t.Fatalf("transmitted %d, waiting %d; want 2 and 10", len(out), e.WaitingCount())
	}
	e.Refund(2, 2)
	e.Refund(5, 1)
	e.Refund(2, 1)
	e.Refund(5, 3)
	if e.WaitingCount() != 3 {
		t.Fatalf("waiting %d after partial drains, want 3", e.WaitingCount())
	}
	got := map[int32][]*proto.Packet{}
	for _, p := range out {
		got[p.DstNode] = append(got[p.DstNode], p)
	}
	for dst, want := range map[int32]int{2: 4, 5: 5} {
		if len(got[dst]) != want {
			t.Fatalf("dst %d: released %d, want %d", dst, len(got[dst]), want)
		}
		for i, p := range got[dst] {
			if p != sent[dst][i] {
				t.Fatalf("dst %d: packet %d released out of send order", dst, i)
			}
		}
	}
	if min := e.PendingMin(); min != sent[2][4].SendTS {
		t.Fatalf("PendingMin %v, want the oldest still waiting (%v)", min, sent[2][4].SendTS)
	}
}
