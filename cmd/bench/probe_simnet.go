package main

import (
	"time"

	"nicwarp/internal/des"
	"nicwarp/internal/proto"
	"nicwarp/internal/simnet"
	"nicwarp/internal/vtime"
)

// probeSimnet times one packet through the fabric on a single engine:
// Announce, the switch arrival, the output-port serializer and the final
// link, so it includes the des events the fabric schedules. Sources and
// destinations are uniform over the ports.
func probeSimnet(seed uint64, ports int, fatTree bool) float64 {
	cfg := simnet.DefaultConfig()
	if fatTree {
		cfg.Topology = simnet.TopoFatTree
	}
	eng := des.NewEngine()
	f := simnet.NewFabric(cfg, ports)
	delivered := 0
	for i := 0; i < ports; i++ {
		f.Attach(i, eng, uint32(i), func(*proto.Packet) { delivered++ })
	}
	const chunk = 1000
	pkts := make([]proto.Packet, chunk)
	start := time.Now()
	for done := 0; done < probeBatchOps; done += chunk {
		for i := range pkts {
			src := int(splitmix64(&seed) % uint64(ports))
			dst := (src + 1 + int(splitmix64(&seed)%uint64(ports-1))) % ports
			pkts[i] = proto.Packet{Kind: proto.KindEvent, SrcNode: int32(src), DstNode: int32(dst)}
			f.Announce(src, &pkts[i], eng.Now())
		}
		eng.Run(vtime.ModelInfinity)
	}
	ns := perOp(start, probeBatchOps)
	if delivered != probeBatchOps {
		panic("simnet probe: fabric lost packets")
	}
	return ns
}
