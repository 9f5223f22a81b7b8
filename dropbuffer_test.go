package nicwarp

import (
	"fmt"
	"testing"

	"nicwarp/internal/vtime"
)

// TestEarlyCancelMatchesOracleAtEveryCapacity is the end-to-end property
// behind the drop buffer's "no slot, no drop" rule: on congested POLICE —
// where drops come in bursts far deeper than a small ring — every capacity
// commits exactly the sequential oracle's events and digest (VerifyOracle)
// and leaves the protocol invariants intact, under both GVT placements,
// with and without send batching, serial and sharded. A full ring only
// makes the firmware decline drops, which the smallest capacity must do.
func TestEarlyCancelMatchesOracleAtEveryCapacity(t *testing.T) {
	if testing.Short() {
		t.Skip("32-run sweep")
	}
	gvts := []struct {
		mode   GVTMode
		period int
	}{{GVTHostMattern, 1000}, {GVTNIC, 100}}
	for _, g := range gvts {
		for _, batch := range []int{1, 8} {
			for _, shards := range []int{1, 2} {
				t.Run(fmt.Sprintf("%v/batch=%d/shards=%d", g.mode, batch, shards), func(t *testing.T) {
					for _, capPerObj := range []int{1, 2, 10, 64} {
						cfg := Config{
							App:             Police(PoliceConfig(45)),
							Nodes:           8,
							Seed:            1,
							GVT:             g.mode,
							GVTPeriod:       g.period,
							EarlyCancel:     true,
							DropBufferCap:   capPerObj,
							VerifyOracle:    true,
							CheckInvariants: true,
						}.WithDefaults()
						cfg.NIC.BatchMax = batch
						if batch > 1 {
							cfg.NIC.FlushHorizon = 20 * vtime.Microsecond
						}
						res, err := Run(cfg, WithShards(shards))
						if err != nil {
							t.Fatalf("cap=%d: %v", capPerObj, err)
						}
						if res.Invariants.Failed() {
							t.Fatalf("cap=%d: %v", capPerObj, res.Invariants.Violations)
						}
						if res.DroppedInPlace == 0 {
							t.Errorf("cap=%d: nothing dropped in place; the rule went unexercised", capPerObj)
						}
						if capPerObj == 1 && res.DropsDeclined == 0 {
							t.Errorf("cap=1: no drop declined; the ring never filled")
						}
					}
				})
			}
		}
	}
}

// TestDropCountsAgree pins the accounting that lets the drop buffer keep no
// counters of its own: every packet the cancel firmware discards — a
// positive dropped in place (one drop-buffer record) or the anti-message
// filtered against it (one drop-buffer take) — strands exactly one credit,
// and the host refunds each one. So the credits MPICH got back equal the
// NIC's two discard counters, with and without send batching.
func TestDropCountsAgree(t *testing.T) {
	for _, batch := range []int{1, 8} {
		cfg := Config{
			App:             Police(PoliceConfig(45)),
			Nodes:           8,
			Seed:            1,
			GVT:             GVTNIC,
			GVTPeriod:       100,
			EarlyCancel:     true,
			CheckInvariants: true,
		}.WithDefaults()
		cfg.NIC.BatchMax = batch
		if batch > 1 {
			cfg.NIC.FlushHorizon = 20 * vtime.Microsecond
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("batch=%d: %v", batch, err)
		}
		if res.Invariants.Failed() {
			t.Fatalf("batch=%d: %v", batch, res.Invariants.Violations)
		}
		if res.DroppedInPlace == 0 || res.AntisFiltered == 0 {
			t.Fatalf("batch=%d: dropped %d, filtered %d; the firmware never discarded both kinds",
				batch, res.DroppedInPlace, res.AntisFiltered)
		}
		if res.CreditRepair != res.DroppedInPlace+res.AntisFiltered {
			t.Errorf("batch=%d: %d credits refunded, but %d dropped in place + %d antis filtered",
				batch, res.CreditRepair, res.DroppedInPlace, res.AntisFiltered)
		}
		t.Logf("batch=%d: %d dropped in place + %d antis filtered = %d credits refunded",
			batch, res.DroppedInPlace, res.AntisFiltered, res.CreditRepair)
	}
}
