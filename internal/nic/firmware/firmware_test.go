package firmware

import (
	"slices"
	"testing"

	"nicwarp/internal/des"
	"nicwarp/internal/nic"
	"nicwarp/internal/proto"
	"nicwarp/internal/simnet"
	"nicwarp/internal/vtime"
)

// rig assembles NICs with the firmware under test and records host-side
// deliveries and doorbells.
type rig struct {
	eng    *des.Engine
	nics   []*nic.NIC
	toHost [][]*proto.Packet
	bells  [][]nic.NotifyTag
	pools  []proto.Pool // one per NIC, so a test can watch what each hands out
}

// newGVT and newTreeGVT return the ring-token and the tree-reduction
// NIC-GVT firmware.
func newGVT() *GVTFirmware { return new(GVTFirmware) }

func newTreeGVT(arity int) *GVTFirmware {
	f := new(GVTFirmware)
	f.Init(arity)
	return f
}

func newRig(t *testing.T, n int, fw func(i int) nic.Firmware) *rig {
	t.Helper()
	return newRigCfg(t, n, nic.DefaultConfig(), fw)
}

func newRigCfg(t *testing.T, n int, cfg nic.Config, fw func(i int) nic.Firmware) *rig {
	t.Helper()
	r := &rig{
		eng:    des.NewEngine(),
		toHost: make([][]*proto.Packet, n),
		pools:  make([]proto.Pool, n),
		bells:  make([][]nic.NotifyTag, n),
	}
	fabric := simnet.NewFabric(simnet.DefaultConfig(), n)
	for i := 0; i < n; i++ {
		i := i
		dev := new(nic.NIC)
		dev.Init(r.eng, i, cfg, fabric, fw(i), &r.pools[i], nic.DefaultDropBufferCap, nil)
		dev.Wire(
			func(p *proto.Packet, done func()) {
				r.toHost[i] = append(r.toHost[i], p)
				done()
			},
			func(tag nic.NotifyTag) { r.bells[i] = append(r.bells[i], tag) },
		)
		r.nics = append(r.nics, dev)
	}
	for _, dev := range r.nics {
		dev.WirePeers(func(node int) *nic.NIC { return r.nics[node] })
	}
	return r
}

func (r *rig) run() { r.eng.Run(vtime.ModelInfinity) }

func ev(src, dst int32, srcObj, dstObj int32, sendTS, recvTS vtime.VTime, id uint64) *proto.Packet {
	return &proto.Packet{
		Kind: proto.KindEvent, SrcNode: src, DstNode: dst,
		SrcObj: srcObj, DstObj: dstObj, SendTS: sendTS, RecvTS: recvTS,
		EventID: id, Seq: 1,
	}
}

func anti(p *proto.Packet) *proto.Packet {
	a := p.Clone()
	a.Kind = proto.KindAnti
	return a
}

// ---- Forwarder / Chain ----

func TestForwarderPassesEverything(t *testing.T) {
	r := newRig(t, 2, func(int) nic.Firmware { return NewForwarder() })
	r.nics[0].HostEnqueue(ev(0, 1, 1, 2, 5, 10, 1))
	r.run()
	if len(r.toHost[1]) != 1 {
		t.Fatalf("delivered %d", len(r.toHost[1]))
	}
}

func TestChainShortCircuits(t *testing.T) {
	cancel := NewCancel()
	gvt := newGVT()
	c := NewChain(cancel, gvt)
	r := newRig(t, 2, func(i int) nic.Firmware {
		if i == 0 {
			return c
		}
		return NewForwarder()
	})
	// A GVT token must be consumed by the gvt element even with the cancel
	// element in front.
	tok := &proto.Packet{Kind: proto.KindGVTToken, SrcNode: 1, DstNode: 0, Token: proto.Token{Epoch: 1, Origin: 1}}
	r.nics[1].HostEnqueue(tok)
	r.run()
	if len(r.toHost[0]) != 0 {
		t.Fatal("token leaked to host")
	}
	if len(r.bells[0]) != 1 || r.bells[0][0] != nic.NotifyGVTControl {
		t.Fatalf("bells = %v", r.bells[0])
	}
}

// TestBatchFrameCyclePrice pins what an inbound batch frame costs the NIC
// processor before any firmware program looks at its sub-messages: one
// header check — the nic package's own constant, which must stay equal to
// CyclesHeaderCheck — plus PerSubMsgCycles per sub-message.
func TestBatchFrameCyclePrice(t *testing.T) {
	cfg := nic.DefaultConfig()
	cfg.BatchMax = 4
	r := newRigCfg(t, 2, cfg, func(int) nic.Firmware { return NewForwarder() })
	// The first packet enters flight alone; the other three queue behind
	// it and leave as one frame.
	for seq := uint64(1); seq <= 4; seq++ {
		p := ev(0, 1, 1, 2, 5, 10, seq)
		p.Seq = seq
		r.nics[0].HostEnqueue(p)
	}
	r.run()
	if got := r.nics[0].Stats.BatchSubs.Value(); got != 3 {
		t.Fatalf("BatchSubs = %d, want one frame of 3", got)
	}
	want := CyclesHeaderCheck + 3*cfg.PerSubMsgCycles
	if got := r.nics[1].Stats.FirmwareCycles.Value(); got != want {
		t.Fatalf("receiver charged %d cycles for the frame, want %d", got, want)
	}
}

func TestEmptyChainPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewChain()
}

// ---- GVT firmware ----

func TestGVTFirmwareTokenRing(t *testing.T) {
	r := newRig(t, 3, func(int) nic.Firmware { return newGVT() })
	// Host 0 stages an initiation and supplies its variables by doorbell.
	w := r.nics[0].Shared()
	w.GVTTokenPending = true
	w.ReceivedHostVariables = true
	w.TokenIsInitiation = true
	w.Token = proto.Token{Min: vtime.Infinity, Epoch: 1}
	w.HostT = 50
	w.HostTMin = vtime.Infinity
	w.HostV = 0
	r.nics[0].Doorbell()
	r.run()
	// The token reached NIC 1, which is now waiting for host variables.
	w1 := r.nics[1].Shared()
	if !w1.GVTTokenPending {
		t.Fatal("token not pending at NIC 1")
	}
	if len(r.bells[1]) != 1 || r.bells[1][0] != nic.NotifyGVTControl {
		t.Fatalf("NIC 1 bells = %v", r.bells[1])
	}
	// Host 1 answers by doorbell; the token moves to NIC 2.
	w1.ReceivedHostVariables = true
	w1.HostT = 70
	w1.HostTMin = vtime.Infinity
	w1.HostV = 0
	r.nics[1].Doorbell()
	r.run()
	w2 := r.nics[2].Shared()
	if !w2.GVTTokenPending {
		t.Fatal("token did not reach NIC 2")
	}
	// Host 2 answers; token returns to the root with count 0 and the GVT
	// is broadcast: every NIC learns min(50, 70, 90) = 50.
	w2.ReceivedHostVariables = true
	w2.HostT = 90
	w2.HostTMin = vtime.Infinity
	w2.HostV = 0
	r.nics[2].Doorbell()
	r.run()
	// Root's own variables for the returning token.
	if !w.GVTTokenPending {
		t.Fatal("token did not return to the root")
	}
	w.ReceivedHostVariables = true
	w.HostT = 55
	w.HostTMin = vtime.Infinity
	w.HostV = 0
	r.nics[0].Doorbell()
	r.run()
	for i := 0; i < 3; i++ {
		if got := r.nics[i].Shared().LatestGVT; got != 50 {
			t.Fatalf("NIC %d LatestGVT = %v, want 50", i, got)
		}
		last := r.bells[i][len(r.bells[i])-1]
		if last != nic.NotifyGVTValue {
			t.Fatalf("NIC %d last bell = %v", i, last)
		}
	}
	if len(r.toHost[0])+len(r.toHost[1])+len(r.toHost[2]) != 0 {
		t.Fatal("GVT traffic must never cross toward a host")
	}
}

// TestGVTFirmwareTokenTravelsInOnePacket: a control packet the firmware
// consumes goes back to its NIC's pool when the receive hook returns, and
// that NIC's next injection takes it from there, so one ring token makes
// the whole circulation — and leaves as the root's broadcast — in the
// packet the root first sent.
func TestGVTFirmwareTokenTravelsInOnePacket(t *testing.T) {
	fws := []*GVTFirmware{newGVT(), newGVT(), newGVT()}
	r := newRig(t, 3, func(i int) nic.Firmware { return fws[i] })
	pools := r.pools
	// next returns the packet pool i hands out next, leaving it there.
	next := func(i int) *proto.Packet {
		p := pools[i].Packet()
		pools[i].Release(p)
		return p
	}
	answer := func(i int, lvt vtime.VTime) {
		w := r.nics[i].Shared()
		w.ReceivedHostVariables = true
		w.HostT = lvt
		w.HostTMin = vtime.Infinity
		w.HostV = 0
		r.nics[i].Doorbell()
		r.run()
	}
	w := r.nics[0].Shared()
	w.GVTTokenPending = true
	w.TokenIsInitiation = true
	w.Token = proto.Token{Min: vtime.Infinity, Epoch: 1}
	answer(0, 50)
	tok := next(1)
	if tok.Kind != proto.KindGVTToken || tok.SrcNode != 0 || tok.DstNode != 1 {
		t.Fatalf("NIC 1's pool offers %v with the token staged, want the consumed token", tok)
	}
	answer(1, 70)
	if next(2) != tok || next(1) == tok {
		t.Fatal("NIC 1 did not send the token on in the packet it consumed")
	}
	answer(2, 90)
	if next(0) != tok {
		t.Fatal("the token did not return to the root's pool in the packet it left in")
	}
	answer(0, 55)
	if next(0) == tok {
		t.Fatal("the root's broadcast did not leave in the returned token")
	}
	for i := range r.nics {
		if got := r.nics[i].Shared().LatestGVT; got != 50 {
			t.Fatalf("NIC %d: LatestGVT %v, want 50", i, got)
		}
		if p := next(i); i > 0 && (p.Kind != proto.KindGVTBroadcast || p.TokenGVT != 50) {
			t.Fatalf("NIC %d's pool offers %v, want the broadcast replica it consumed", i, p)
		}
	}
}

// gvtPrograms are the GVT program's two shapes, ring and tree; both count
// sends in the one sendLedger and take the host handshake through
// extractPiggy, so the ledger tests run over each.
var gvtPrograms = []struct {
	name string
	fw   func(int) nic.Firmware
}{
	{"ring", func(int) nic.Firmware { return newGVT() }},
	{"tree", func(int) nic.Firmware { return newTreeGVT(2) }},
}

func TestGVTFirmwareWhiteCounting(t *testing.T) {
	for _, prog := range gvtPrograms {
		t.Run(prog.name, func(t *testing.T) {
			r := newRig(t, 2, prog.fw)
			// Three white transmits (stamp 0) before any wave.
			for k := 0; k < 3; k++ {
				r.nics[0].HostEnqueue(ev(0, 1, 1, 2, vtime.VTime(k), vtime.VTime(k+1), uint64(k)))
			}
			r.run()
			// Initiation for wave 1: the NIC folds its three white transmits.
			w := r.nics[0].Shared()
			w.GVTTokenPending = true
			w.ReceivedHostVariables = true
			w.TokenIsInitiation = true
			w.Token = proto.Token{Min: vtime.Infinity, Epoch: 1}
			w.HostT = vtime.Infinity
			w.HostTMin = vtime.Infinity
			w.HostV = 0 // host received none of them (they went to node 1)
			r.nics[0].Doorbell()
			r.run()
			// Host 1 has not absorbed them either, so whichever way the
			// balance travels (on the ring token through NIC 1, or up the
			// tree as NIC 1's reduce folded into the root's own sum), the
			// root is re-staged with all three still in transit.
			w1 := r.nics[1].Shared()
			if !w1.GVTTokenPending {
				t.Fatal("computation did not reach NIC 1")
			}
			w1.ReceivedHostVariables = true
			w1.HostT = vtime.Infinity
			w1.HostTMin = vtime.Infinity
			w1.HostV = 0
			r.nics[1].Doorbell()
			r.run()
			if !w.GVTTokenPending || w.Token.Count != 3 {
				t.Fatalf("root window pending=%v count=%d, want 3 white transmits in transit",
					w.GVTTokenPending, w.Token.Count)
			}
		})
	}
}

func TestGVTFirmwarePiggybackExtraction(t *testing.T) {
	for _, prog := range gvtPrograms {
		t.Run(prog.name, func(t *testing.T) {
			r := newRig(t, 2, prog.fw)
			p := ev(0, 1, 1, 2, 5, 10, 1)
			p.PiggyGVTValid = true
			p.PiggyT = 33
			p.PiggyTMin = 44
			p.PiggyV = 7
			r.nics[0].HostEnqueue(p)
			r.run()
			w := r.nics[0].Shared()
			if !w.ReceivedHostVariables || w.HostT != 33 || w.HostTMin != 44 || w.HostV != 7 {
				t.Fatalf("piggyback not extracted: %+v", w)
			}
			// The piggyback is scrubbed before the packet crosses the wire.
			if len(r.toHost[1]) != 1 || r.toHost[1][0].PiggyGVTValid {
				t.Fatal("piggyback leaked to the destination")
			}
		})
	}
}

// ---- Cancel firmware ----

func TestCancelFirmwareScanDropsErroneousMessages(t *testing.T) {
	r := newRig(t, 2, func(int) nic.Firmware { return NewCancel() })
	// Node 0's object 5 has erroneous output queued: sendTS 120..180.
	for k := 0; k < 4; k++ {
		r.nics[0].HostEnqueue(ev(0, 1, 5, 9, vtime.VTime(120+20*k), vtime.VTime(125+20*k), uint64(10+k)))
	}
	// An anti-message for object 5 with receive timestamp 100 arrives from
	// node 1 (the paper's Figure 3b).
	straggler := &proto.Packet{
		Kind: proto.KindAnti, SrcNode: 1, DstNode: 0,
		SrcObj: 9, DstObj: 5, SendTS: 90, RecvTS: 100, EventID: 77, Seq: 1,
	}
	r.nics[1].HostEnqueue(straggler)
	r.run()
	dropped := r.nics[0].Stats.DroppedInPlace.Value()
	if dropped == 0 {
		t.Fatal("nothing cancelled in place")
	}
	// Anti + surviving events reach node 1's host; dropped ones do not.
	if int64(len(r.toHost[1]))+dropped != 4 {
		t.Fatalf("delivered %d + dropped %d != 4", len(r.toHost[1]), dropped)
	}
	// Every drop is recorded for anti filtering.
	if got := r.nics[0].Shared().Dropped.TotalLen(); int64(got) != dropped {
		t.Fatalf("drop buffer holds %d, want %d", got, dropped)
	}
}

func TestCancelFirmwareFiltersChasingAntis(t *testing.T) {
	r := newRig(t, 2, func(int) nic.Firmware { return NewCancel() })
	p := ev(0, 1, 5, 9, 120, 125, 10)
	q := ev(0, 1, 5, 9, 140, 145, 11)
	r.nics[0].HostEnqueue(p)
	r.nics[0].HostEnqueue(q)
	trigger := &proto.Packet{
		Kind: proto.KindAnti, SrcNode: 1, DstNode: 0,
		SrcObj: 9, DstObj: 5, SendTS: 90, RecvTS: 100, EventID: 77, Seq: 1,
	}
	r.nics[1].HostEnqueue(trigger)
	// The host's chasing anti-messages follow (aggressive cancellation).
	r.nics[0].HostEnqueue(anti(p))
	r.nics[0].HostEnqueue(anti(q))
	r.run()
	drops := r.nics[0].Stats.DroppedInPlace.Value()
	filtered := r.nics[0].Stats.AntisFiltered.Value()
	if filtered != drops {
		t.Fatalf("filtered %d antis for %d drops; pairing must be exact", filtered, drops)
	}
	if r.nics[0].Shared().Dropped.TotalLen() != 0 {
		t.Fatal("drop buffer should be fully consumed")
	}
}

func TestCancelFirmwareRespectsAntiEpoch(t *testing.T) {
	r := newRig(t, 2, func(int) nic.Firmware { return NewCancel() })
	trigger := &proto.Packet{
		Kind: proto.KindAnti, SrcNode: 1, DstNode: 0,
		SrcObj: 9, DstObj: 5, SendTS: 90, RecvTS: 100, EventID: 77, Seq: 1,
	}
	r.nics[1].HostEnqueue(trigger)
	r.run()
	// A message generated AFTER the host processed the anti (piggybacked
	// count 1 >= anti seq 1) is legitimate re-execution output.
	clean := ev(0, 1, 5, 9, 150, 155, 12)
	clean.PiggyAntiEpoch = 1
	r.nics[0].HostEnqueue(clean)
	r.run()
	if r.nics[0].Stats.DroppedInPlace.Value() != 0 {
		t.Fatal("post-rollback output wrongly cancelled")
	}
	if len(r.toHost[1]) != 1 {
		t.Fatal("clean message not delivered")
	}
}

func TestCancelFirmwareSparesGVTPiggyback(t *testing.T) {
	r := newRig(t, 2, func(int) nic.Firmware { return NewCancel() })
	carrier := ev(0, 1, 5, 9, 150, 155, 13)
	carrier.PiggyGVTValid = true
	r.nics[0].HostEnqueue(carrier)
	trigger := &proto.Packet{
		Kind: proto.KindAnti, SrcNode: 1, DstNode: 0,
		SrcObj: 9, DstObj: 5, SendTS: 90, RecvTS: 100, EventID: 77, Seq: 1,
	}
	r.nics[1].HostEnqueue(trigger)
	r.run()
	if r.nics[0].Stats.DroppedInPlace.Value() != 0 {
		t.Fatal("a GVT handshake carrier was dropped")
	}
}

func TestCancelFirmwareCreditRefund(t *testing.T) {
	r := newRig(t, 2, func(int) nic.Firmware { return NewCancel() })
	for k := 0; k < 3; k++ {
		r.nics[0].HostEnqueue(ev(0, 1, 5, 9, vtime.VTime(120+k), vtime.VTime(125+k), uint64(20+k)))
	}
	trigger := &proto.Packet{
		Kind: proto.KindAnti, SrcNode: 1, DstNode: 0,
		SrcObj: 9, DstObj: 5, SendTS: 90, RecvTS: 100, EventID: 77, Seq: 1,
	}
	r.nics[1].HostEnqueue(trigger)
	r.run()
	drops := r.nics[0].Stats.DroppedInPlace.Value()
	if drops == 0 {
		t.Skip("timing did not produce drops")
	}
	if refund := r.nics[0].Shared().CreditRefund.Sum(); refund != drops {
		t.Fatalf("credit refund %d != drops %d", refund, drops)
	}
	// A refund doorbell was raised.
	found := false
	for _, b := range r.bells[0] {
		if b == nic.NotifyCreditRefund {
			found = true
		}
	}
	if !found {
		t.Fatal("no credit-refund doorbell")
	}
}

// TestCancelFirmwareDropAccountsWhiteBalance: a positive the send-queue
// scan drops is booked in the white balance under its colour stamp.
func TestCancelFirmwareDropAccountsWhiteBalance(t *testing.T) {
	f, api := NewCancel(), newFakeAPI(nic.DefaultDropBufferCap)
	p := ev(0, 1, 5, 9, 120, 125, 30)
	p.ColorEpoch = 4
	api.queue = []*proto.Packet{p}
	f.OnWireReceive(antiFor(5, 100), api)
	if len(api.queue) != 0 || api.stats.DroppedInPlace.Value() != 1 {
		t.Fatalf("scan left %d queued and dropped %d, want 0 and 1", len(api.queue), api.stats.DroppedInPlace.Value())
	}
	white := &api.shared.DroppedWhite
	if at4, total := white.Below(5)-white.Below(4), white.Below(^uint32(0)); at4 != 1 || total != 1 {
		t.Fatalf("DroppedWhite counts %d at stamp 4 of %d in all, want 1 of 1", at4, total)
	}
}

// fakeAPI is nic.API over a bare slice, for driving one firmware hook at a
// time with the send queue and drop buffer in an exact state — the rig's
// real NICs drain their queues on their own schedule.
type fakeAPI struct {
	queue  []*proto.Packet
	shared *nic.SharedWindow
	stats  nic.Stats
	bells  []nic.NotifyTag
}

func newFakeAPI(dropCap int) *fakeAPI {
	w := new(nic.SharedWindow)
	w.Init(dropCap)
	return &fakeAPI{shared: w}
}

func (a *fakeAPI) Node() int                  { return 0 }
func (a *fakeAPI) NumNodes() int              { return 2 }
func (a *fakeAPI) Charge(int64)               {}
func (a *fakeAPI) SendQueueLen() int          { return len(a.queue) }
func (a *fakeAPI) Inject(*proto.Packet)       { panic("cancel firmware injects nothing") }
func (a *fakeAPI) Packet() *proto.Packet      { panic("cancel firmware builds no packets") }
func (a *fakeAPI) Shared() *nic.SharedWindow  { return a.shared }
func (a *fakeAPI) NotifyHost(t nic.NotifyTag) { a.bells = append(a.bells, t) }
func (a *fakeAPI) Stats() *nic.Stats          { return &a.stats }
func (a *fakeAPI) SendQueue(visit func(*proto.Packet)) {
	for _, p := range a.queue {
		visit(p)
	}
}

func (a *fakeAPI) RemoveFromSendQueue(pred func(*proto.Packet) bool) int {
	var kept []*proto.Packet
	for _, p := range a.queue {
		if !pred(p) {
			kept = append(kept, p)
		}
	}
	removed := len(a.queue) - len(kept)
	a.queue = kept
	return removed
}

// antiFor returns an inbound anti-message that rolls object obj back to ts.
func antiFor(obj int32, ts vtime.VTime) *proto.Packet {
	return &proto.Packet{
		Kind: proto.KindAnti, SrcNode: 1, DstNode: 0,
		SrcObj: 9, DstObj: obj, SendTS: ts - 10, RecvTS: ts, EventID: 77, Seq: 1,
	}
}

// TestCancelFirmwareDeclinesDropWithoutSlot: with the sending object's drop
// ring full, a cancellable positive is forwarded as an ordinary packet —
// nothing recorded, no credit refunded, no doorbell — and dropping resumes
// once the anti-message of a recorded drop frees a slot.
func TestCancelFirmwareDeclinesDropWithoutSlot(t *testing.T) {
	f, api := NewCancel(), newFakeAPI(1)
	f.OnWireReceive(antiFor(5, 100), api)
	first := ev(0, 1, 5, 9, 120, 125, 10)
	if v := f.OnHostSend(first, api); v != nic.VerdictDrop {
		t.Fatalf("first positive: verdict %v, want drop (one free slot)", v)
	}
	bells := len(api.bells)
	if v := f.OnHostSend(ev(0, 1, 5, 9, 140, 145, 11), api); v != nic.VerdictForward {
		t.Fatalf("second positive: verdict %v, want forward (ring full)", v)
	}
	w := api.shared
	if w.Dropped.TotalLen() != 1 || w.CreditRefund.Sum() != 1 || w.DropsByDst.Sum() != 1 || len(api.bells) != bells {
		t.Fatalf("declined drop left traces: %d records, %d refunds, %d drops by dst, %d new doorbells",
			w.Dropped.TotalLen(), w.CreditRefund.Sum(), w.DropsByDst.Sum(), len(api.bells)-bells)
	}
	if api.stats.DropsDeclined.Value() != 1 || api.stats.DroppedInPlace.Value() != 1 {
		t.Fatalf("declined %d, dropped %d, want 1 and 1",
			api.stats.DropsDeclined.Value(), api.stats.DroppedInPlace.Value())
	}
	// The forwarded positive's anti finds no record and travels too; the
	// dropped one's is filtered and frees the slot.
	if v := f.OnHostSend(anti(ev(0, 1, 5, 9, 140, 145, 11)), api); v != nic.VerdictForward {
		t.Fatalf("anti of the forwarded positive: verdict %v, want forward", v)
	}
	if v := f.OnHostSend(anti(first), api); v != nic.VerdictDrop || w.Dropped.TotalLen() != 0 {
		t.Fatalf("anti of the dropped positive: verdict %v with %d records left", v, w.Dropped.TotalLen())
	}
	if v := f.OnHostSend(ev(0, 1, 5, 9, 160, 165, 12), api); v != nic.VerdictDrop {
		t.Fatalf("positive after the slot was freed: verdict %v, want drop", v)
	}
}

// TestCancelFirmwareScanTakesOnlyFreeSlots: a scan that matches five queued
// positives while the object's ring has two free slots removes exactly the
// two oldest; the other three stay queued, in order, and are counted as
// declined.
func TestCancelFirmwareScanTakesOnlyFreeSlots(t *testing.T) {
	f, api := NewCancel(), newFakeAPI(3)
	api.shared.Dropped.Record(5, nic.DropKey{ID: 1}) // an earlier drop still awaiting its anti
	bystander := ev(0, 1, 6, 9, 130, 135, 99)        // another object's output
	api.queue = []*proto.Packet{bystander}
	for k := 0; k < 5; k++ {
		api.queue = append(api.queue, ev(0, 1, 5, 9, vtime.VTime(120+k), vtime.VTime(125+k), uint64(20+k)))
	}
	f.OnWireReceive(antiFor(5, 100), api)
	var left []uint64
	for _, p := range api.queue {
		left = append(left, p.EventID)
	}
	if want := []uint64{99, 22, 23, 24}; !slices.Equal(left, want) {
		t.Fatalf("queue after the scan holds events %v, want %v", left, want)
	}
	d := api.shared.Dropped
	if d.Room(5) != 0 || d.Len(5) != 3 {
		t.Fatalf("ring holds %d records, want the earlier drop plus events 20 and 21", d.Len(5))
	}
	for _, p := range []*proto.Packet{ev(0, 1, 5, 9, 120, 125, 20), ev(0, 1, 5, 9, 121, 126, 21)} {
		if !d.Take(5, dropKey(p)) {
			t.Fatalf("event %d was dropped but not recorded", p.EventID)
		}
	}
	if api.stats.DroppedInPlace.Value() != 2 || api.stats.DropsDeclined.Value() != 3 {
		t.Fatalf("dropped %d, declined %d, want 2 and 3",
			api.stats.DroppedInPlace.Value(), api.stats.DropsDeclined.Value())
	}
	if refund := api.shared.CreditRefund.Sum(); refund != 2 {
		t.Fatalf("credit refund %d, want 2", refund)
	}
}

// TestCancelFirmwareWindowExpiresAtItsSeq: a cancellation window stays open
// while dequeued packets piggyback a processed-anti count below its seq and
// closes exactly when one piggybacks a count >= its seq. Windows open in seq
// order, so they close oldest first and a later window outlives an earlier
// one.
func TestCancelFirmwareWindowExpiresAtItsSeq(t *testing.T) {
	f, api := NewCancel(), newFakeAPI(nic.DefaultDropBufferCap)
	f.OnWireReceive(antiFor(5, 100), api) // window seq 1, object 5
	f.OnWireReceive(antiFor(6, 100), api) // window seq 2, object 6
	id := uint64(0)
	send := func(obj int32, epoch uint64) nic.Verdict {
		id++
		p := ev(0, 1, obj, 9, 120, 125, id)
		p.PiggyAntiEpoch = epoch
		return f.OnHostSend(p, api)
	}
	open := func(want ...uint64) {
		t.Helper()
		var got []uint64
		for _, e := range f.entries.Live() {
			got = append(got, e.seq)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("open windows %v, want %v", got, want)
		}
	}
	const bystander = 7 // an object no window cancels: it only carries counts

	send(bystander, 0)
	open(1, 2)
	if v := send(5, 0); v != nic.VerdictDrop {
		t.Fatalf("object 5 under window 1: verdict %v, want drop", v)
	}
	send(bystander, 1) // the host processed anti 1: window 1 closes, 2 stays
	open(2)
	if v := send(5, 0); v != nic.VerdictForward {
		t.Fatalf("object 5 after window 1 closed: verdict %v, want forward", v)
	}
	if v := send(6, 1); v != nic.VerdictDrop {
		t.Fatalf("object 6 under window 2: verdict %v, want drop", v)
	}
	send(bystander, 1) // a repeated count closes nothing
	open(2)
	send(bystander, 2)
	open()
	if v := send(6, 1); v != nic.VerdictForward {
		t.Fatalf("object 6 after window 2 closed: verdict %v, want forward", v)
	}
}
