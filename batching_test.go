package nicwarp

import (
	"testing"

	"nicwarp/internal/vtime"
)

// TestBatchingObservationallyInvisible is the end-to-end property behind
// the NIC send-batching offload: for every application in the registry,
// runs at batch sizes 1 (off), 4, and 16 must commit exactly the outcome
// of the sequential oracle. Each run self-checks against the oracle
// (VerifyOracle), and the committed-state digests must agree across batch
// sizes — batching may only change when messages move, never what the
// simulation computes.
func TestBatchingObservationallyInvisible(t *testing.T) {
	if testing.Short() {
		t.Skip("12-run sweep")
	}
	pcsParams := PCSDefault()
	pcsParams.Width, pcsParams.Height = 4, 2
	pcsParams.CallsPerCell = 25
	apps := []struct {
		name string
		app  App
	}{
		{"phold", PHOLD(PHOLDParams{Objects: 16, Population: 1, Hops: 60, MeanDelay: 30, Locality: 0.25})},
		{"raid", RAID(RAIDGVTConfig(500))},
		{"police", Police(PoliceConfig(12))},
		{"pcs", PCS(pcsParams)},
	}
	for _, a := range apps {
		a := a
		t.Run(a.name, func(t *testing.T) {
			digests := make(map[int]uint64)
			for _, bm := range []int{1, 4, 16} {
				cfg := Config{
					App:          a.app,
					Nodes:        4,
					Seed:         3,
					GVT:          GVTNIC,
					GVTPeriod:    100,
					EarlyCancel:  true,
					VerifyOracle: true,
				}.WithDefaults()
				cfg.NIC.BatchMax = bm
				if bm > 1 {
					cfg.NIC.FlushHorizon = 20 * vtime.Microsecond
				}
				res, err := Run(cfg)
				if err != nil {
					t.Fatalf("batch=%d: %v", bm, err)
				}
				if res.CommittedEvents == 0 {
					t.Fatalf("batch=%d: nothing committed", bm)
				}
				if bm > 1 && res.BatchFrames == 0 {
					t.Errorf("batch=%d: no frames assembled", bm)
				}
				digests[bm] = res.Digest
			}
			if digests[4] != digests[1] || digests[16] != digests[1] {
				t.Errorf("committed digests diverge across batch sizes: %v", digests)
			}
		})
	}
}
