package main

import (
	"time"

	"nicwarp/internal/des"
	"nicwarp/internal/hostmodel"
	"nicwarp/internal/vtime"
)

// probeHostmodel times CPU.DoArg: the category charge, the FIFO resource
// submit and the completion event.
func probeHostmodel(seed uint64) float64 {
	eng := des.NewEngine()
	cpu := hostmodel.NewCPU(eng, 0, hostmodel.DefaultCostTable())
	const chunk = 1000
	start := time.Now()
	for done := 0; done < probeBatchOps; done += chunk {
		for i := 0; i < chunk; i++ {
			cpu.DoArg(hostmodel.Category(i%4), 2*vtime.Microsecond, desNop, nil)
		}
		eng.Run(vtime.ModelInfinity)
	}
	return perOp(start, probeBatchOps)
}
