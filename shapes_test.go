package nicwarp

import "testing"

// The tests in this file lock in the paper's comparative *shapes* at a
// reduced scale, so a regression in the model or the optimizations that
// breaks a reproduction claim fails CI rather than silently degrading
// EXPERIMENTS.md. Thresholds are deliberately loose: they assert direction
// and rough magnitude, not exact values.

func shapeOpts() FigureOpts { return FigureOpts{Scale: 0.1, Seed: 1}.withDefaults() }

// TestShapeFigure4 asserts Figure 4's claims: the host implementation
// degrades substantially at aggressive GVT while NIC-GVT stays flat, and
// the two converge at large periods.
func TestShapeFigure4(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	saved := GVTPeriods
	GVTPeriods = []int{1, 10000}
	defer func() { GVTPeriods = saved }()

	rows, err := foldGVTRows(runExperiment(t, "fig4", shapeOpts()))
	if err != nil {
		t.Fatal(err)
	}
	aggressive, relaxed := rows[0], rows[1]
	// Host Mattern must be at least 1.5x slower than NIC-GVT at period 1.
	if aggressive.HostSec < 1.5*aggressive.NICSec {
		t.Errorf("period 1: warped %.4f vs nic %.4f; expected >= 1.5x gap",
			aggressive.HostSec, aggressive.NICSec)
	}
	// At a relaxed period the two converge within 10%.
	ratio := relaxed.HostSec / relaxed.NICSec
	if ratio < 0.9 || ratio > 1.1 {
		t.Errorf("period 10000: warped/nic ratio %.3f, expected within 10%%", ratio)
	}
	// The host implementation's own degradation from relaxed to aggressive.
	if aggressive.HostSec < 1.4*relaxed.HostSec {
		t.Errorf("warped degradation %.2fx, expected >= 1.4x",
			aggressive.HostSec/relaxed.HostSec)
	}
	// NIC-GVT must not degrade materially at aggressive periods.
	if aggressive.NICSec > 1.15*relaxed.NICSec {
		t.Errorf("nic-gvt degraded %.2fx at period 1",
			aggressive.NICSec/relaxed.NICSec)
	}
}

// TestShapeFigure5b asserts Figure 5(b)'s claims: host rounds scale as
// 1/period; NIC rounds stay near constant.
func TestShapeFigure5b(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	saved := GVTPeriods
	GVTPeriods = []int{1, 100}
	defer func() { GVTPeriods = saved }()

	rows, err := foldGVTRows(runExperiment(t, "fig5", shapeOpts()))
	if err != nil {
		t.Fatal(err)
	}
	// Host rounds at period 1 dwarf those at period 100 (ideally ~100x;
	// demand >= 10x).
	if rows[0].HostRounds < 10*rows[1].HostRounds {
		t.Errorf("warped rounds %d @1 vs %d @100; expected >= 10x growth",
			rows[0].HostRounds, rows[1].HostRounds)
	}
	// NIC rounds vary by less than 3x across the same range.
	lo, hi := rows[0].NICRounds, rows[0].NICRounds
	for _, r := range rows {
		if r.NICRounds < lo {
			lo = r.NICRounds
		}
		if r.NICRounds > hi {
			hi = r.NICRounds
		}
	}
	if lo == 0 || hi > 3*lo {
		t.Errorf("nic rounds range [%d, %d]; expected near-constant", lo, hi)
	}
	// Host rounds must dominate NIC rounds at period 1 by a wide margin.
	if rows[0].HostRounds < 5*rows[0].NICRounds {
		t.Errorf("warped rounds %d vs nic %d at period 1; expected >= 5x",
			rows[0].HostRounds, rows[0].NICRounds)
	}
}

// TestShapeFigure7and8 asserts the POLICE cancellation claims: a large
// fraction of cancelled messages die on the NIC, execution improves
// substantially, and total message counts drop.
func TestShapeFigure7and8(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	saved := PoliceStations
	PoliceStations = []int{2000} // scaled to 200
	defer func() { PoliceStations = saved }()

	rows, err := foldCancelRows(policeCancelXs(shapeOpts()), runExperiment(t, "fig78", shapeOpts()))
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.NICDropRatePct < 15 {
		t.Errorf("NIC drop rate %.1f%%, expected a large fraction (paper: 52-62%%)", r.NICDropRatePct)
	}
	if r.ImprovementPct < 5 {
		t.Errorf("improvement %.1f%%, expected substantial (paper: up to 27%%)", r.ImprovementPct)
	}
	if r.CancelMsgs >= r.BaseMsgs {
		t.Errorf("messages with cancellation %d >= baseline %d; Figure 8 expects a drop",
			r.CancelMsgs, r.BaseMsgs)
	}
	if r.CancelRollbacks >= r.BaseRollbacks {
		t.Errorf("rollbacks with cancellation %d >= baseline %d", r.CancelRollbacks, r.BaseRollbacks)
	}
}

// TestShapeFigure6 asserts the RAID cancellation claims: the effect is
// small (the paper's "modest ... less than 5%") and very few messages are
// cancelled in place.
func TestShapeFigure6(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	saved := RAIDRequestCounts
	RAIDRequestCounts = []int{100000} // scaled to 10000
	defer func() { RAIDRequestCounts = saved }()

	rows, err := foldCancelRows(raidCancelXs(shapeOpts()), runExperiment(t, "fig6", shapeOpts()))
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	// Small effect either way.
	if r.ImprovementPct > 6 || r.ImprovementPct < -6 {
		t.Errorf("RAID improvement %.1f%%, expected |x| < 6%%", r.ImprovementPct)
	}
	droppedOfMsgs := 100 * float64(r.DroppedInPlace) / float64(r.CancelMsgs)
	if droppedOfMsgs > 1.5 {
		t.Errorf("dropped %.2f%% of messages, paper says < 1%%", droppedOfMsgs)
	}
	if r.DroppedInPlace == 0 {
		t.Error("no messages cancelled in place at all")
	}
}

// TestShapeGVTAlgorithms asserts the algorithm ordering that motivates the
// paper's setup: pGVT costs more control traffic than Mattern, and NIC-GVT
// is at least as fast as host Mattern at an aggressive period.
func TestShapeGVTAlgorithms(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rows := ablationRows(t, "abl-gvt-algorithms", shapeOpts())
	pg, mat, nicr := rows[0], rows[1], rows[2]
	if pg.Extra["ctrlMsgs"] <= mat.Extra["ctrlMsgs"] {
		t.Errorf("pGVT ctrl msgs %.0f <= mattern %.0f", pg.Extra["ctrlMsgs"], mat.Extra["ctrlMsgs"])
	}
	if nicr.Sec > mat.Sec*1.05 {
		t.Errorf("nic-gvt %.4fs slower than mattern %.4fs at period 10", nicr.Sec, mat.Sec)
	}
}
