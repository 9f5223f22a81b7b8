package nic

import (
	"fmt"
	"testing"

	"nicwarp/internal/des"
	"nicwarp/internal/proto"
	"nicwarp/internal/simnet"
	"nicwarp/internal/vtime"
)

// wireProbe watches node 0's transmit side from outside the pump and runs
// the design the NIC used to have next to it as the oracle: a wire
// serializer that is a FIFO server (ref), fed one job per forwarded packet
// at that packet's processor completion, on the same engine. The probe sees
// each forward pump the way the fabric does (it is the fabric's Tap, and
// OnRoute runs inside Announce), each processor completion through
// proc.Jobs, each nicTxSerialized through the HostTx/NICTx counters, and
// each announced departure through when the packet reaches node 1.
//
// What it holds the NIC to is the structural claim that lets the wire be one
// timer: ref never has a job waiting — so max(processor finish, serializer
// free) is always the processor finish — and the NIC is idle exactly when
// the NIC with ref for a serializer would be.
type wireProbe struct {
	t   *testing.T
	r   *rig
	n   *NIC
	net simnet.Config
	ref *des.Resource

	// The forwarded packet between its pump and nicTxSerialized, if any.
	inFlight bool
	procJob  int64           // ordinal of its job on n.proc
	procDone bool            // that job completed; depart is set
	wire     vtime.ModelTime // its serialization time
	depart   vtime.ModelTime // when ref releases it

	sent       int64             // HostTx+NICTx accounted so far
	portFree   vtime.ModelTime   // node 1's switch output port, fed by node 0 alone
	wantArrive []vtime.ModelTime // when each announced packet must reach node 1

	forwards    int
	behindRx    int // forward pumps that queued behind other processor work
	wireOnly    int // instants at which the wire alone kept the NIC busy
	idleFlips   int
	stalledPump bool // the pump was seen stalled on a closed window
}

// newWireProbe builds a two-node rig under cfg, running fw on node 0 and a
// forwarding stub on node 1, with the probe installed.
func newWireProbe(t *testing.T, cfg Config, fw Firmware) *wireProbe {
	t.Helper()
	r := batchRig(t, cfg, func(i int) Firmware {
		if i == 0 {
			return fw
		}
		return &stubFirmware{}
	})
	p := &wireProbe{t: t, r: r, n: r.nics[0], net: simnet.DefaultConfig(), ref: des.NewResource(r.eng, "parent-nic-tx-0")}
	r.fabric.SetTap(p)
	r.fabric.Attach(1, r.eng, 1, func(pkt *proto.Packet) {
		if len(p.wantArrive) == 0 || p.wantArrive[0] != r.eng.Now() {
			t.Errorf("packet reached node 1 at %v; departures announced for it imply %v", r.eng.Now(), p.wantArrive)
		} else {
			p.wantArrive = p.wantArrive[1:]
		}
		nicWireReceive(r.nics[1], pkt)
	})
	return p
}

// OnRoute implements simnet.Tap: node 0 just announced pkt.
func (p *wireProbe) OnRoute(src, dst int, pkt *proto.Packet) simnet.TapDecision {
	if src != p.n.node {
		return simnet.TapDecision{}
	}
	p.serialized() // nicTxSerialized re-arms the pump within its own event
	if p.inFlight {
		p.t.Errorf("forward pump at %v while the previous packet has not left the wire", p.r.eng.Now())
	}
	// The pump submits the processor job before it announces. The processor
	// holds at most one transmit job (txPumping) and one receive job
	// (rxPumping) at a time — these schedules ring no doorbell — so this job
	// is behind other work exactly when a receive is in flight.
	p.inFlight, p.procDone = true, false
	p.procJob = p.n.proc.Jobs.Value() + 1
	p.wire = vtime.TransferTime(pkt.EncodedSize(), p.net.LinkBandwidth)
	p.forwards++
	if p.n.rxPumping {
		p.procJob++
		p.behindRx++
	}
	return simnet.TapDecision{}
}

// serialized accounts for a nicTxSerialized that has run since the last look.
func (p *wireProbe) serialized() {
	sent := p.n.Stats.HostTx.Value() + p.n.Stats.NICTx.Value()
	if sent == p.sent {
		return
	}
	if now := p.r.eng.Now(); !p.inFlight || !p.procDone || now != p.depart {
		p.t.Errorf("nicTxSerialized at %v; the serializer releases the packet at %v (in flight %v, processed %v)",
			now, p.depart, p.inFlight, p.procDone)
	}
	p.sent = sent
	p.inFlight = false
}

// observe runs after every engine event.
func (p *wireProbe) observe() {
	now := p.r.eng.Now()
	p.stalledPump = p.stalledPump || p.n.txStalled
	if p.inFlight && !p.procDone && p.n.proc.Jobs.Value() >= p.procJob {
		// This event was the forwarded packet's processor completion: the
		// old design hands it to the serializer now.
		if !p.ref.Idle() {
			p.t.Errorf("at %v: processor finished a packet while the serializer still holds the previous one", now)
		}
		p.procDone = true
		p.depart = p.ref.SubmitArg(p.wire, nil, nil)
		// The fabric's path for a packet announced to depart then.
		atPort := p.depart + p.net.LinkLatency + p.net.SwitchLatency
		p.portFree = vtime.MaxM(atPort, p.portFree) + p.wire
		p.wantArrive = append(p.wantArrive, p.portFree+p.net.LinkLatency)
	}
	p.serialized()
	if pumping := p.n.txPumping && p.n.txVerdict == VerdictForward; pumping != p.inFlight {
		p.t.Errorf("at %v: the pump holds a forwarded packet = %v, one is between Announce and nicTxSerialized = %v", now, pumping, p.inFlight)
	}
}

// drained is every term of NIC.Idle but the wire's.
func (p *wireProbe) drained() bool {
	return p.n.sendQ.Len() == 0 && p.n.recvQ.Len() == 0 && p.n.proc.Idle()
}

// run steps the engine dry. Idle is compared once per model instant, after
// the instant's last event: within an instant the two serializers' events
// fire in key order, which is not what is being compared.
func (p *wireProbe) run() {
	eng := p.r.eng
	wasIdle := p.n.Idle()
	for {
		// parent: NIC.Idle with ref standing in for the deleted serializer.
		at, idle, parent := eng.Now(), p.n.Idle(), p.drained() && p.ref.Idle()
		wireOnly := !idle && p.drained()
		more := eng.Step()
		if !more || eng.Now() != at {
			if idle != parent {
				p.t.Errorf("at %v: Idle() = %v, with a serializer server %v", at, idle, parent)
			}
			if idle != wasIdle {
				p.idleFlips++
				wasIdle = idle
			}
			if wireOnly {
				p.wireOnly++
			}
		}
		if !more {
			break
		}
		p.observe()
	}
	if p.inFlight || len(p.wantArrive) != 0 || !p.n.Idle() {
		p.t.Errorf("drained with a packet in flight (%v), %d undelivered, idle %v", p.inFlight, len(p.wantArrive), p.n.Idle())
	}
}

// TestTxDepartIsProcFinishPlusWire: on a congested NIC — early-cancellation
// style queue edits and drop verdicts, a destination window that keeps
// closing, receives competing for the processor, solo packets and batch
// frames of several sizes — every forwarded packet departs at its processor
// finish plus its serialization time, because the wire never holds the
// previous packet by then.
func TestTxDepartIsProcFinishPlusWire(t *testing.T) {
	for _, batchMax := range []int{1, 4} {
		t.Run(fmt.Sprintf("batch%d", batchMax), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.RxQueueCap = 2
			cfg.BatchMax = batchMax
			drops := 0
			p := newWireProbe(t, cfg, &stubFirmware{
				onHostSend: func(pkt *proto.Packet, a API) Verdict {
					a.Charge(int64(pkt.EventID%3) * 150)
					if pkt.EventID%5 == 4 {
						drops++
						return VerdictDrop
					}
					return VerdictForward
				},
				onWireReceive: func(pkt *proto.Packet, a API) Verdict {
					if pkt.IsAnti() {
						removed := a.RemoveFromSendQueue(func(q *proto.Packet) bool { return q.RecvTS == pkt.RecvTS })
						a.Stats().DroppedInPlace.Add(int64(removed))
					}
					return VerdictForward
				},
			})
			eng, n0, n1 := p.r.eng, p.r.nics[0], p.r.nics[1]
			// Node 1's host is slow, so node 0's window toward it keeps closing.
			n1.Wire(func(_ *proto.Packet, done func()) {
				eng.AtArg(eng.Now()+30*vtime.Microsecond, func(interface{}) { done() }, nil)
			}, func(NotifyTag) {})
			// Node 0's host outruns its NIC (6 us a packet); node 1 interleaves
			// positives and antis that cancel what node 0 still has queued.
			for k := uint64(1); k <= 120; k++ {
				at := vtime.ModelTime(k) * 2 * vtime.Microsecond
				eng.AtArg(at, func(interface{}) { n0.HostEnqueue(seqPkt(0, 1, k)) }, nil)
				if k%4 == 0 {
					eng.AtArg(at+700, func(interface{}) {
						back := seqPkt(1, 0, k)
						if k%8 == 0 {
							back.Kind = proto.KindAnti
							back.RecvTS = vtime.VTime(200 + k - 1) // seqPkt's RecvTS of packet k-1
						}
						n1.HostEnqueue(back)
					}, nil)
				}
			}
			p.run()

			cancelled := n0.Stats.DroppedInPlace.Value()
			if p.forwards < 20 || drops == 0 || cancelled == 0 || !p.stalledPump || p.behindRx == 0 {
				t.Fatalf("scenario too tame: %d forward pumps, %d drop verdicts, %d cancelled in place, stalled %v, %d pumps behind other processor work",
					p.forwards, drops, cancelled, p.stalledPump, p.behindRx)
			}
			if frames := n0.Stats.BatchFrames.Value(); (frames > 0) != (batchMax > 1) {
				t.Fatalf("%d batch frames at BatchMax %d", frames, batchMax)
			}
		})
	}
}

// TestIdleTracksPumpState: for each transmit verdict, alone and with
// receives sharing the processor, Idle() built on txPumping changes at the
// same model instants as Idle() built on a serializer server does — both
// driven by the one schedule below (wireProbe.run compares them at every
// instant). A forwarded packet must show the case that tells the two terms
// apart from "the processor is idle": queues empty, processor idle, packet
// still on the wire.
func TestIdleTracksPumpState(t *testing.T) {
	sendAt := []vtime.ModelTime{0, vtime.Microsecond, 40 * vtime.Microsecond, 90 * vtime.Microsecond}
	recvAt := []vtime.ModelTime{500, 33 * vtime.Microsecond, 89 * vtime.Microsecond}
	for _, verdict := range []Verdict{VerdictForward, VerdictDrop, VerdictConsume} {
		for _, withRx := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v/rx=%v", verdict, withRx), func(t *testing.T) {
				p := newWireProbe(t, DefaultConfig(), &stubFirmware{
					onHostSend: func(*proto.Packet, API) Verdict { return verdict },
				})
				eng, n0, n1 := p.r.eng, p.r.nics[0], p.r.nics[1]
				for i, at := range sendAt {
					seq := uint64(i + 1)
					eng.AtArg(at, func(interface{}) { n0.HostEnqueue(seqPkt(0, 1, seq)) }, nil)
				}
				if withRx {
					for i, at := range recvAt {
						seq := uint64(i + 1)
						eng.AtArg(at, func(interface{}) { n1.HostEnqueue(seqPkt(1, 0, seq)) }, nil)
					}
				}
				p.run()

				// Three bursts of sends, each of which ends idle.
				if p.idleFlips < 6 {
					t.Errorf("Idle() changed %d times over three separate bursts", p.idleFlips)
				}
				if forward := verdict == VerdictForward; (p.forwards > 0) != forward || (p.wireOnly > 0) != forward {
					t.Errorf("verdict %v: %d forward pumps, %d instants busy on the wire alone", verdict, p.forwards, p.wireOnly)
				}
			})
		}
	}
}
