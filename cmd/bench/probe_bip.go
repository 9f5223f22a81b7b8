package main

import (
	"time"

	"nicwarp/internal/bip"
	"nicwarp/internal/proto"
)

// probeBIP times one Stamp at the sender plus one AcceptV at the receiver of
// an in-order stream.
func probeBIP(seed uint64) float64 {
	tx, rx := bip.New(0), bip.New(1)
	pkt := proto.Packet{Kind: proto.KindEvent, SrcNode: 0, DstNode: 1}
	start := time.Now()
	for i := 0; i < probeBatchOps; i++ {
		tx.Stamp(&pkt)
		_, missing := rx.AcceptV(&pkt)
		probeSink += int64(missing)
	}
	return perOp(start, probeBatchOps)
}
