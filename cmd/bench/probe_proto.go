package main

import (
	"time"

	"nicwarp/internal/proto"
	"nicwarp/internal/vtime"
)

// probeBatchSubs is the sub-message count of the batch-frame probe, the
// police-batch8 workload's frame capacity.
const probeBatchSubs = 8

// probeProto times MarshalAppend into a reused buffer and Unmarshal of the
// result. With subs == 0 the packet is one event and the cost is per packet;
// otherwise it is a KindBatch frame and the cost is per sub-message.
func probeProto(seed uint64, subs int) []float64 {
	pkt := proto.Packet{
		Kind: proto.KindEvent, Seq: 1, SrcNode: 0, DstNode: 1, SrcObj: 3, DstObj: 4,
		SendTS: vtime.VTime(splitmix64(&seed) % 1000), RecvTS: 2000, EventID: splitmix64(&seed), Payload: 7,
	}
	per := 1
	if subs > 0 {
		pkt.Kind = proto.KindBatch
		per = subs
		for i := 0; i < subs; i++ {
			pkt.Subs = append(pkt.Subs, proto.SubMsg{
				Kind: proto.KindEvent, SeqDelta: uint32(i), SrcObj: 3, DstObj: 4,
				SendTS: pkt.SendTS, RecvTS: vtime.VTime(2000 + i), EventID: splitmix64(&seed), Payload: 7,
			})
		}
	}
	buf := pkt.MarshalAppend(nil)
	start := time.Now()
	for i := 0; i < probeBatchOps; i++ {
		buf = pkt.MarshalAppend(buf[:0])
	}
	marshal := perOp(start, probeBatchOps*per)
	start = time.Now()
	for i := 0; i < probeBatchOps; i++ {
		got, err := proto.Unmarshal(buf)
		if err != nil {
			panic(err) // the probe decodes its own encoding
		}
		probeSink += int64(got.Seq)
	}
	return []float64{marshal, perOp(start, probeBatchOps*per)}
}
