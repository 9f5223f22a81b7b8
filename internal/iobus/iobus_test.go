package iobus

import (
	"testing"

	"nicwarp/internal/des"
	"nicwarp/internal/vtime"
)

// call runs a closure threaded through the Arg forms' receiver.
func call(fn interface{}) { fn.(func())() }

func TestDMACost(t *testing.T) {
	e := des.NewEngine()
	cfg := Config{Bandwidth: 100e6, DMASetup: 500 * vtime.Nanosecond}
	b := NewBus(e, 0, cfg)
	var done vtime.ModelTime
	b.DMAArg(1000, call, func() { done = e.Now() })
	e.Run(vtime.ModelInfinity)
	want := cfg.DMASetup + vtime.TransferTime(1000, cfg.Bandwidth)
	if done != want {
		t.Fatalf("DMA completed at %v, want %v", done, want)
	}
	if b.Transfers.Value() != 1 {
		t.Fatalf("transfers = %d", b.Transfers.Value())
	}
}

func TestBusContention(t *testing.T) {
	// Two DMAs submitted together must serialize: the bus is the shared
	// resource the paper's bandwidth argument is about.
	e := des.NewEngine()
	cfg := Config{Bandwidth: 100e6, DMASetup: 0}
	b := NewBus(e, 0, cfg)
	var first, second vtime.ModelTime
	b.DMAArg(1000, call, func() { first = e.Now() })
	b.DMAArg(1000, call, func() { second = e.Now() })
	e.Run(vtime.ModelInfinity)
	per := vtime.TransferTime(1000, cfg.Bandwidth)
	if first != per || second != 2*per {
		t.Fatalf("completions %v, %v; want %v, %v", first, second, per, 2*per)
	}
}

func TestWordTransfer(t *testing.T) {
	e := des.NewEngine()
	cfg := Config{Bandwidth: 100e6, DMASetup: 700 * vtime.Nanosecond}
	b := NewBus(e, 0, cfg)
	var at vtime.ModelTime
	b.WordArg(call, func() { at = e.Now() })
	e.Run(vtime.ModelInfinity)
	if at != cfg.DMASetup {
		t.Fatalf("word transfer at %v, want %v", at, cfg.DMASetup)
	}
}

func TestZeroSizeDMA(t *testing.T) {
	e := des.NewEngine()
	b := NewBus(e, 0, DefaultConfig())
	ran := false
	b.DMAArg(0, call, func() { ran = true })
	e.Run(vtime.ModelInfinity)
	if !ran {
		t.Fatal("zero-size DMA never completed")
	}
}

func TestNegativeSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e := des.NewEngine()
	NewBus(e, 0, DefaultConfig()).DMAArg(-1, nil, nil)
}

func TestIdleAndUtilization(t *testing.T) {
	e := des.NewEngine()
	b := NewBus(e, 0, DefaultConfig())
	if !b.res.Idle() {
		t.Fatal("new bus should be idle")
	}
	b.DMAArg(100000, nil, nil)
	if b.res.Idle() {
		t.Fatal("bus with queued DMA should not be idle")
	}
	e.Run(vtime.ModelInfinity)
	if u := b.res.UtilizationAt(e.Now()); !b.res.Idle() || u != 1.0 {
		t.Fatalf("idle=%v utilization=%v", b.res.Idle(), u)
	}
}

func TestDefaultConfigIsPCI(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Bandwidth != 132e6 {
		t.Fatalf("default bandwidth %v, want 132MB/s PCI", cfg.Bandwidth)
	}
}
