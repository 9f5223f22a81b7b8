package main

import (
	"time"

	"nicwarp/internal/des"
	"nicwarp/internal/iobus"
	"nicwarp/internal/vtime"
)

// probeIOBus times Bus.DMAArg of one wire-sized packet: the transfer cost,
// the FIFO resource submit and the completion event.
func probeIOBus(seed uint64) float64 {
	eng := des.NewEngine()
	bus := iobus.NewBus(eng, 0, iobus.DefaultConfig())
	const chunk = 1000
	start := time.Now()
	for done := 0; done < probeBatchOps; done += chunk {
		for i := 0; i < chunk; i++ {
			bus.DMAArg(128, desNop, nil)
		}
		eng.Run(vtime.ModelInfinity)
	}
	return perOp(start, probeBatchOps)
}
