// customfirmware demonstrates the programmable-NIC model itself — the
// paper's broader claim that "any portion of the application may be
// implemented on the NIC". It builds a bare modeled cluster (no Time Warp)
// and installs a custom firmware that (i) keeps a per-kind traffic census
// on the NIC, and (ii) filters packets by an application rule — the paper's
// "filter (or generate) messages directly on the NIC" — all paid for in NIC
// processor cycles.
//
//	go run ./examples/customfirmware
package main

import (
	"fmt"

	"nicwarp/internal/des"
	"nicwarp/internal/nic"
	"nicwarp/internal/nic/firmware"
	"nicwarp/internal/proto"
	"nicwarp/internal/simnet"
	"nicwarp/internal/vtime"
)

// censusFirmware counts traffic by kind and drops outgoing event packets
// whose payload fails an application predicate (here: odd payloads) —
// a toy version of application-specific filtering on the NIC.
type censusFirmware struct {
	sent     map[proto.Kind]int
	received map[proto.Kind]int
	filtered int
}

func newCensus() *censusFirmware {
	return &censusFirmware{
		sent:     make(map[proto.Kind]int),
		received: make(map[proto.Kind]int),
	}
}

func (f *censusFirmware) OnHostSend(pkt *proto.Packet, api nic.API) nic.Verdict {
	api.Charge(firmware.CyclesHeaderCheck)
	f.sent[pkt.Kind]++
	if pkt.Kind == proto.KindEvent && pkt.Payload%2 == 1 {
		api.Charge(firmware.CyclesDropRecord)
		f.filtered++
		return nic.VerdictDrop
	}
	return nic.VerdictForward
}

func (f *censusFirmware) OnWireReceive(pkt *proto.Packet, api nic.API) nic.Verdict {
	api.Charge(firmware.CyclesHeaderCheck)
	f.received[pkt.Kind]++
	return nic.VerdictForward
}

func (f *censusFirmware) OnDoorbell(api nic.API) {}

func main() {
	eng := des.NewEngine()
	const nodes = 2
	fabric := simnet.NewFabric(simnet.DefaultConfig(), nodes)

	fws := []*censusFirmware{newCensus(), newCensus()}
	nics := make([]*nic.NIC, nodes)
	delivered := make([]int, nodes)
	for i := 0; i < nodes; i++ {
		i := i
		nics[i] = nic.New(eng, i, nic.DefaultConfig(), fabric, fws[i])
		nics[i].Wire(
			func(pkt *proto.Packet, done func()) {
				delivered[i]++
				done() // host consumes instantly in this demo
			},
			func(nic.NotifyTag) {},
		)
	}
	for _, n := range nics {
		n.WirePeers(func(node int) *nic.NIC { return nics[node] })
	}

	// Host 0 sends 100 event packets to host 1; odd payloads get filtered
	// on the NIC before ever crossing the wire.
	for k := 0; k < 100; k++ {
		nics[0].HostEnqueue(&proto.Packet{
			Kind:    proto.KindEvent,
			SrcNode: 0,
			DstNode: 1,
			Seq:     uint64(k + 1),
			Payload: uint64(k),
		})
	}
	eng.Run(vtime.ModelInfinity)

	fmt.Printf("node 0 sent by kind:       %v\n", fws[0].sent)
	fmt.Printf("node 0 filtered on NIC:    %d packets (odd payloads)\n", fws[0].filtered)
	fmt.Printf("node 1 received by kind:   %v\n", fws[1].received)
	fmt.Printf("node 1 delivered to host:  %d packets\n", delivered[1])
	fmt.Printf("modeled time on the wire:  %v\n", eng.Now())
	fmt.Printf("NIC 0 processor util:      %.3f\n", nics[0].ProcUtilizationAt(eng.Now()))
	fmt.Println()
	fmt.Println("The filter ran on the modeled 66 MHz LanAI processor and was")
	fmt.Println("charged per packet — the same accounting the GVT and early-")
	fmt.Println("cancellation firmware in internal/nic/firmware pay.")
}
