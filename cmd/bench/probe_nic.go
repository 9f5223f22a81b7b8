package main

import (
	"time"

	"nicwarp/internal/des"
	"nicwarp/internal/nic"
	"nicwarp/internal/nic/firmware"
	"nicwarp/internal/proto"
	"nicwarp/internal/simnet"
	"nicwarp/internal/vtime"
)

// probeNICForward times one packet from HostEnqueue on one NIC to host
// delivery on the other, both running the plain forwarder firmware: send
// queue, transmit pump, fabric, receive pump and the credit return. It
// includes the des events and the simnet traversal underneath.
func probeNICForward(seed uint64) float64 {
	eng := des.NewEngine()
	fabric := simnet.NewFabric(simnet.DefaultConfig(), 2)
	var nics [2]*nic.NIC
	delivered := 0
	for i := range nics {
		nics[i] = nic.New(eng, i, nic.DefaultConfig(), fabric, firmware.NewForwarder())
		nics[i].Wire(func(_ *proto.Packet, done func()) {
			delivered++
			done()
		}, func(nic.NotifyTag) {})
	}
	for _, n := range nics {
		n.WirePeers(func(node int) *nic.NIC { return nics[node] })
	}
	const chunk = 500
	pkts := make([]proto.Packet, chunk)
	start := time.Now()
	for done := 0; done < probeBatchOps; done += chunk {
		for i := range pkts {
			pkts[i] = proto.Packet{Kind: proto.KindEvent, Seq: uint64(done + i + 1), SrcNode: 0, DstNode: 1}
			nics[0].HostEnqueue(&pkts[i])
		}
		eng.Run(vtime.ModelInfinity)
	}
	ns := perOp(start, probeBatchOps)
	if delivered != probeBatchOps {
		panic("nic probe: packets not delivered")
	}
	return ns
}
