package core

import (
	"fmt"
	"testing"

	"nicwarp/internal/nic"
	"nicwarp/internal/vtime"
)

// batchConfig returns baseConfig with NIC-side send batching enabled at the
// given frame capacity.
func batchConfig(batchMax int) Config {
	cfg := baseConfig()
	cfg.NIC = nic.DefaultConfig()
	cfg.NIC.BatchMax = batchMax
	return cfg
}

func TestBatchingMatchesOracle(t *testing.T) {
	for _, bm := range []int{2, 4, 16} {
		bm := bm
		t.Run(fmt.Sprintf("batch%d", bm), func(t *testing.T) {
			res := mustRun(t, batchConfig(bm))
			if res.CommittedEvents == 0 {
				t.Fatal("nothing committed")
			}
		})
	}
}

func TestBatchingWithFlushHorizon(t *testing.T) {
	cfg := batchConfig(8)
	cfg.NIC.FlushHorizon = 5 * vtime.Microsecond
	res := mustRun(t, cfg)
	if res.CommittedEvents == 0 {
		t.Fatal("nothing committed")
	}
}

func TestBatchingComposesWithOffloads(t *testing.T) {
	cfg := batchConfig(8)
	cfg.GVT = GVTNIC
	cfg.EarlyCancel = true
	cfg.CheckInvariants = true
	res := mustRun(t, cfg)
	if res.CommittedEvents == 0 {
		t.Fatal("nothing committed")
	}
	if v := res.Invariants.ViolationsTotal; v != 0 {
		t.Fatalf("%d invariant violations: %+v", v, res.Invariants.Violations)
	}
}

// TestBatchingReducesWireTraffic is the economics check: a frame carrying
// N sub-messages replaces N wire packets and N receive-side bus DMAs with
// one of each, so every run saves exactly BatchSubs-BatchFrames of both
// relative to its own unbatched counterfactual. (Cross-run comparisons
// are deliberately avoided: at test scale, timing shifts change rollback
// counts and thus the message total itself.)
func TestBatchingReducesWireTraffic(t *testing.T) {
	cfg := batchConfig(8)
	cfg.NIC.FlushHorizon = 10 * vtime.Microsecond
	on := mustRun(t, cfg)
	if on.BatchFrames == 0 {
		t.Fatal("no frames assembled despite a flush horizon")
	}
	if on.BatchSubs < 2*on.BatchFrames {
		t.Fatalf("frames carry too few subs: %d frames, %d subs", on.BatchFrames, on.BatchSubs)
	}
	saved := on.BatchSubs - on.BatchFrames
	if saved <= 0 {
		t.Fatalf("batching saved no wire packets: %d frames, %d subs", on.BatchFrames, on.BatchSubs)
	}
	t.Logf("frames %d, subs %d: %d wire packets and rx DMAs saved", on.BatchFrames, on.BatchSubs, saved)
}

// TestBatchingOffIsIdentical pins the default-off guarantee: a config that
// never enables batching must produce the same committed digest and the
// same message accounting as before the batching layer existed (the
// machinery is entirely dormant).
func TestBatchingOffIsIdentical(t *testing.T) {
	a := mustRun(t, baseConfig())
	b := mustRun(t, batchConfig(0))
	if a.Digest != b.Digest || a.ExecTime != b.ExecTime || a.WirePackets != b.WirePackets {
		t.Fatalf("BatchMax=0 differs from untouched default: %v vs %v", a, b)
	}
	if b.BatchFrames != 0 || b.BatchSubs != 0 {
		t.Fatalf("batching counters moved while off: %d frames, %d subs", b.BatchFrames, b.BatchSubs)
	}
}
