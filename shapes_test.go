package nicwarp

import "testing"

// The tests in this file lock in the paper's comparative *shapes* at a
// reduced scale, so a regression in the model or the optimizations that
// breaks a reproduction claim fails CI rather than silently degrading
// EXPERIMENTS.md. Thresholds are deliberately loose: they assert direction
// and rough magnitude, not exact values. Results come in Jobs order: a
// sweep row's two points (host/NIC GVT, or baseline/cancellation) are
// adjacent.

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

	r := runExperiment(t, "fig4", shapeOpts())
	aggHost, aggNIC := r[0].ExecTime.Seconds(), r[1].ExecTime.Seconds()
	relHost, relNIC := r[2].ExecTime.Seconds(), r[3].ExecTime.Seconds()
	// Host Mattern must be at least 1.5x slower than NIC-GVT at period 1.
	if aggHost < 1.5*aggNIC {
		t.Errorf("period 1: warped %.4f vs nic %.4f; expected >= 1.5x gap", aggHost, aggNIC)
	}
	// At a relaxed period the two converge within 10%.
	ratio := relHost / relNIC
	if ratio < 0.9 || ratio > 1.1 {
		t.Errorf("period 10000: warped/nic ratio %.3f, expected within 10%%", ratio)
	}
	// The host implementation's own degradation from relaxed to aggressive.
	if aggHost < 1.4*relHost {
		t.Errorf("warped degradation %.2fx, expected >= 1.4x", aggHost/relHost)
	}
	// NIC-GVT must not degrade materially at aggressive periods.
	if aggNIC > 1.15*relNIC {
		t.Errorf("nic-gvt degraded %.2fx at period 1", aggNIC/relNIC)
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

	r := runExperiment(t, "fig5", shapeOpts())
	host1, nic1, host100, nic100 := r[0].GVTRounds, r[1].GVTRounds, r[2].GVTRounds, r[3].GVTRounds
	// Host rounds at period 1 dwarf those at period 100 (ideally ~100x;
	// demand >= 10x).
	if host1 < 10*host100 {
		t.Errorf("warped rounds %d @1 vs %d @100; expected >= 10x growth", host1, host100)
	}
	// NIC rounds vary by less than 3x across the same range.
	lo, hi := nic1, nic100
	if lo > hi {
		lo, hi = hi, lo
	}
	if lo == 0 || hi > 3*lo {
		t.Errorf("nic rounds range [%d, %d]; expected near-constant", lo, hi)
	}
	// Host rounds must dominate NIC rounds at period 1 by a wide margin.
	if host1 < 5*nic1 {
		t.Errorf("warped rounds %d vs nic %d at period 1; expected >= 5x", host1, nic1)
	}
}

// improvement is Figures 6a/7a's y-axis: the execution time early
// cancellation saves, in percent of the baseline's.
func improvement(base, cancel *Result) float64 {
	b, c := base.ExecTime.Seconds(), cancel.ExecTime.Seconds()
	return 100 * (b - c) / b
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

	r := runExperiment(t, "fig78", shapeOpts())
	base, cancel := r[0], r[1]
	if rate := cancel.NICDropRate(); rate < 15 {
		t.Errorf("NIC drop rate %.1f%%, expected a large fraction (paper: 52-62%%)", rate)
	}
	if imp := improvement(base, cancel); imp < 5 {
		t.Errorf("improvement %.1f%%, expected substantial (paper: up to 27%%)", imp)
	}
	if cancel.EventMsgsBuilt >= base.EventMsgsBuilt {
		t.Errorf("messages with cancellation %d >= baseline %d; Figure 8 expects a drop",
			cancel.EventMsgsBuilt, base.EventMsgsBuilt)
	}
	if cancel.Rollbacks >= base.Rollbacks {
		t.Errorf("rollbacks with cancellation %d >= baseline %d", cancel.Rollbacks, base.Rollbacks)
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

	r := runExperiment(t, "fig6", shapeOpts())
	base, cancel := r[0], r[1]
	// Small effect either way.
	if imp := improvement(base, cancel); imp > 6 || imp < -6 {
		t.Errorf("RAID improvement %.1f%%, expected |x| < 6%%", imp)
	}
	droppedOfMsgs := 100 * float64(cancel.DroppedInPlace) / float64(cancel.EventMsgsBuilt)
	if droppedOfMsgs > 1.5 {
		t.Errorf("dropped %.2f%% of messages, paper says < 1%%", droppedOfMsgs)
	}
	if cancel.DroppedInPlace == 0 {
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
	r := runExperiment(t, "abl-gvt-algorithms", shapeOpts())
	pg, mat, nicr := r[0], r[1], r[2]
	if pg.GVTControlMsgs <= mat.GVTControlMsgs {
		t.Errorf("pGVT ctrl msgs %d <= mattern %d", pg.GVTControlMsgs, mat.GVTControlMsgs)
	}
	if nicr.ExecTime.Seconds() > mat.ExecTime.Seconds()*1.05 {
		t.Errorf("nic-gvt %.4fs slower than mattern %.4fs at period 10",
			nicr.ExecTime.Seconds(), mat.ExecTime.Seconds())
	}
}
