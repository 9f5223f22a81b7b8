package main

import (
	"time"

	"nicwarp/internal/mpich"
	"nicwarp/internal/proto"
)

// probeMPICH times one flow-controlled Send through a loopback pair: the
// sender's credit check and dispatch, the receiver's OnReceive, and the
// explicit credit message that returns every ReturnThreshold packets.
func probeMPICH(seed uint64) float64 {
	var a, b *mpich.Endpoint
	a = mpich.New(0, mpich.DefaultConfig(), func(p *proto.Packet) {
		if reply := b.OnReceive(p); reply != nil {
			b.Send(reply)
		}
	})
	b = mpich.New(1, mpich.DefaultConfig(), func(p *proto.Packet) {
		if reply := a.OnReceive(p); reply != nil {
			a.Send(reply)
		}
	})
	pkt := proto.Packet{Kind: proto.KindEvent, Seq: 1, SrcNode: 0, DstNode: 1}
	start := time.Now()
	for i := 0; i < probeBatchOps; i++ {
		a.Send(&pkt)
	}
	ns := perOp(start, probeBatchOps)
	if a.WaitingCount() != 0 {
		panic("mpich probe: sender ran out of credit") // the loopback returns credit synchronously
	}
	return ns
}
