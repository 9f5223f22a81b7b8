package hostmodel

import (
	"testing"

	"nicwarp/internal/des"
	"nicwarp/internal/vtime"
)

func TestDefaultCostTableValid(t *testing.T) {
	c := DefaultCostTable()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.EventGrain <= 0 || c.SendOverhead <= 0 {
		t.Fatal("defaults must be positive")
	}
}

func TestValidateRejectsNegative(t *testing.T) {
	c := DefaultCostTable()
	c.RecvOverhead = -1
	if err := c.Validate(); err == nil {
		t.Fatal("expected error for negative cost")
	}
}

func TestNewCPUPanicsOnBadCosts(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c := DefaultCostTable()
	c.EventGrain = -1
	NewCPU(des.NewEngine(), 0, c)
}

// call runs a closure threaded through DoArg's receiver.
func call(fn interface{}) { fn.(func())() }

func TestDoCategorizesWork(t *testing.T) {
	e := des.NewEngine()
	cpu := NewCPU(e, 0, DefaultCostTable())
	cpu.DoArg(CatEvent, 10*vtime.Microsecond, nil, nil)
	cpu.DoArg(CatComm, 5*vtime.Microsecond, nil, nil)
	cpu.DoArg(CatGVT, 3*vtime.Microsecond, nil, nil)
	cpu.DoArg(CatRollback, 2*vtime.Microsecond, nil, nil)
	e.Run(vtime.ModelInfinity)
	if cpu.EventWork.Total() != 10*vtime.Microsecond {
		t.Fatalf("event work = %v", cpu.EventWork.Total())
	}
	if cpu.CommWork.Total() != 5*vtime.Microsecond {
		t.Fatalf("comm work = %v", cpu.CommWork.Total())
	}
	if cpu.GVTWork.Total() != 3*vtime.Microsecond {
		t.Fatalf("gvt work = %v", cpu.GVTWork.Total())
	}
	if cpu.RollbackWork.Total() != 2*vtime.Microsecond {
		t.Fatalf("rollback work = %v", cpu.RollbackWork.Total())
	}
	if cpu.res.Jobs.Value() != 4 {
		t.Fatalf("jobs = %d", cpu.res.Jobs.Value())
	}
}

func TestCPUSerializesJobs(t *testing.T) {
	e := des.NewEngine()
	cpu := NewCPU(e, 0, DefaultCostTable())
	var order []int
	cpu.DoArg(CatEvent, 10, call, func() { order = append(order, 1) })
	cpu.DoArg(CatComm, 10, call, func() { order = append(order, 2) })
	e.Run(vtime.ModelInfinity)
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("order = %v", order)
	}
	if e.Now() != 20 {
		t.Fatalf("clock = %v", e.Now())
	}
}

func TestDoUnknownCategoryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e := des.NewEngine()
	NewCPU(e, 0, DefaultCostTable()).DoArg(Category(99), 1, nil, nil)
}

func TestIdle(t *testing.T) {
	e := des.NewEngine()
	cpu := NewCPU(e, 0, DefaultCostTable())
	if !cpu.Idle() {
		t.Fatal("fresh CPU should be idle")
	}
	cpu.DoArg(CatEvent, 100, nil, nil)
	if cpu.Idle() {
		t.Fatal("CPU with work should not be idle")
	}
	e.Run(vtime.ModelInfinity)
	if !cpu.Idle() {
		t.Fatal("drained CPU should be idle")
	}
}

func TestHistPenalty(t *testing.T) {
	c := DefaultCostTable()
	if c.HistPenalty(0) != 0 {
		t.Fatal("no history, no penalty")
	}
	if got := c.HistPenalty(1000); got != c.HistPenaltyPer1K {
		t.Fatalf("penalty(1000) = %v, want %v", got, c.HistPenaltyPer1K)
	}
	// The penalty saturates at the cap.
	if got := c.HistPenalty(1 << 30); got != c.HistPenaltyCap {
		t.Fatalf("penalty(huge) = %v, want cap %v", got, c.HistPenaltyCap)
	}
	// Monotone in between.
	if c.HistPenalty(500) > c.HistPenalty(2000) {
		t.Fatal("penalty must be monotone")
	}
}
