package main

import (
	"time"

	"nicwarp/internal/gvt"
	"nicwarp/internal/proto"
	"nicwarp/internal/vtime"
)

// probeGVTLedger times the Mattern colour ledger's per-packet bookkeeping:
// one OnSend plus one OnRecv, with a new computation joined (and its white
// balance read) every 1024 packets.
func probeGVTLedger(seed uint64) float64 {
	l := gvt.NewLedger()
	pkt := proto.Packet{Kind: proto.KindEvent}
	var sink int64
	start := time.Now()
	for i := 0; i < probeBatchOps; i++ {
		pkt.SendTS = vtime.VTime(splitmix64(&seed) % 1000000)
		l.OnSend(&pkt)
		l.OnRecv(&pkt)
		if i%1024 == 1023 {
			l.Join(l.Epoch() + 1)
			sink += l.WhiteSent() - l.TakeRecvDelta() + int64(l.MinRedSend())
		}
	}
	ns := perOp(start, probeBatchOps)
	probeSink += sink
	return ns
}

// probeSink keeps probe results live so the compiler cannot drop the work.
var probeSink int64
