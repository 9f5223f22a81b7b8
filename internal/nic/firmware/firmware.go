// Package firmware contains the NIC programs of the reproduction: the
// baseline forwarder (stock Myrinet control program), the NIC-level GVT
// firmware and the early-cancellation firmware from the paper, and a Chain
// combinator for composing them.
//
// Firmware code runs on the modeled LanAI processor: every hook charges its
// work in NIC cycles through nic.API.Charge. The cycle constants are sized
// for a 66 MHz processor executing straight-line header inspection — they
// are what make NIC-GVT slightly slower than host GVT when GVT is
// infrequent (paper, Section 4.1) and what makes send-queue scans costly on
// a slow NIC (Section 4.2).
package firmware

import (
	"nicwarp/internal/nic"
	"nicwarp/internal/proto"
)

// Cycle cost constants for firmware building blocks.
const (
	// CyclesHeaderCheck is the cost of classifying one packet (branch on
	// Kind plus a couple of field loads).
	CyclesHeaderCheck = 10
	// CyclesPiggyExtract is the cost of copying piggybacked handshake
	// values from a packet into the shared window.
	CyclesPiggyExtract = 40
	// CyclesTokenFold is the cost of folding host/NIC contributions into a
	// pending token.
	CyclesTokenFold = 60
	// CyclesTokenBuild is the cost of marshalling a token or broadcast
	// packet into the transmit ring.
	CyclesTokenBuild = 90
	// CyclesNotify is the cost of raising a host doorbell (PIO write).
	CyclesNotify = 30
	// CyclesQueueScanPerPacket is the per-entry cost of scanning the send
	// queue for cancellable messages.
	CyclesQueueScanPerPacket = 8
	// CyclesDropRecord is the cost of recording a dropped event ID in the
	// shared drop buffer.
	CyclesDropRecord = 30
)

// Forwarder is the baseline firmware: the stock control program that moves
// packets between host and wire without inspecting them beyond routing.
type Forwarder struct{}

// NewForwarder returns the baseline firmware.
func NewForwarder() *Forwarder { return &Forwarder{} }

// Name implements nic.Firmware.
func (*Forwarder) Name() string { return "forwarder" }

// OnHostSend implements nic.Firmware.
func (*Forwarder) OnHostSend(pkt *proto.Packet, api nic.API) nic.Verdict {
	return nic.VerdictForward
}

// OnWireReceive implements nic.Firmware.
func (*Forwarder) OnWireReceive(pkt *proto.Packet, api nic.API) nic.Verdict {
	return nic.VerdictForward
}

// OnDoorbell implements nic.Firmware.
func (*Forwarder) OnDoorbell(api nic.API) {}

// Chain composes firmware programs: hooks run in order until one returns a
// verdict other than Forward, which short-circuits the rest (a dropped or
// consumed packet is gone). Doorbells reach every element.
type Chain struct {
	parts []nic.Firmware
}

// NewChain composes the given firmware programs.
func NewChain(parts ...nic.Firmware) *Chain {
	if len(parts) == 0 {
		panic("firmware: empty chain")
	}
	return &Chain{parts: parts}
}

// Name implements nic.Firmware.
func (c *Chain) Name() string {
	name := "chain("
	for i, p := range c.parts {
		if i > 0 {
			name += "+"
		}
		name += p.Name()
	}
	return name + ")"
}

// OnHostSend implements nic.Firmware.
func (c *Chain) OnHostSend(pkt *proto.Packet, api nic.API) nic.Verdict {
	for _, p := range c.parts {
		if v := p.OnHostSend(pkt, api); v != nic.VerdictForward {
			return v
		}
	}
	return nic.VerdictForward
}

// OnWireReceive implements nic.Firmware.
func (c *Chain) OnWireReceive(pkt *proto.Packet, api nic.API) nic.Verdict {
	for _, p := range c.parts {
		if v := p.OnWireReceive(pkt, api); v != nic.VerdictForward {
			return v
		}
	}
	return nic.VerdictForward
}

// OnDoorbell implements nic.Firmware.
func (c *Chain) OnDoorbell(api nic.API) {
	for _, p := range c.parts {
		p.OnDoorbell(api)
	}
}
