package invariant

import (
	"strings"
	"testing"

	"nicwarp/internal/proto"
	"nicwarp/internal/vtime"
)

func evPkt(id uint64, recv vtime.VTime) *proto.Packet {
	return &proto.Packet{
		Kind: proto.KindEvent, SrcNode: 0, DstNode: 1, SrcObj: 2, DstObj: 3,
		SendTS: recv - 5, RecvTS: recv, EventID: id,
	}
}

func rules(rep *Report) []string {
	var out []string
	for _, v := range rep.Violations {
		out = append(out, v.Rule)
	}
	return out
}

func wantViolation(t *testing.T, rep *Report, rule string) {
	t.Helper()
	for _, v := range rep.Violations {
		if v.Rule == rule {
			return
		}
	}
	t.Fatalf("no %q violation in %v", rule, rules(rep))
}

func TestCleanLifecycleReportsNothing(t *testing.T) {
	c := NewChecker(2)
	for i := uint64(1); i <= 3; i++ {
		c.OnSent(evPkt(i, vtime.VTime(100*i)))
	}
	c.OnDelivered(1, evPkt(1, 100))
	c.OnNICDiscard(0, evPkt(2, 200)) // early cancellation
	c.OnDelivered(1, evPkt(3, 300))
	c.OnCommitGVT(0, 90) // under both floor and transit minimum
	c.OnCommitGVT(1, 90)
	c.Fold(95)
	c.CheckTransitEmpty()
	c.CheckCreditPair(0, 1, 60, 4, 64)
	// One deliberately wrong BIP pair (1 hole + 2 tail != 2 drops) proves
	// the report is live; everything before it must have been clean.
	c.CheckBIPPair(0, 1, 1, 10, 8, 2)
	rep := c.Report()
	if rep.ViolationsTotal != 1 || rep.Violations[0].Rule != "bip-gap-accounting" {
		t.Fatalf("unexpected violations: %v", rules(rep))
	}
	if rep.Sent != 3 || rep.Delivered != 2 || rep.Discarded != 1 {
		t.Fatalf("counters: %+v", rep)
	}
	if rep.ViolationsTotal == 0 {
		t.Fatal("Failed() false with a recorded violation")
	}
}

func TestGVTSafety(t *testing.T) {
	cases := []struct {
		name      string
		transitTS vtime.VTime // 0 = nothing in transit
		commit    vtime.VTime
		floor     vtime.VTime
		wantRule  string
	}{
		{name: "commit under floor and transit", transitTS: 150, commit: 100, floor: 120},
		{name: "commit equal to bound is safe", transitTS: 150, commit: 150, floor: 200},
		{name: "commit above transit minimum", transitTS: 150, commit: 160, floor: 200,
			wantRule: "gvt-safety"},
		{name: "commit above floor", commit: 160, floor: 150, wantRule: "gvt-safety"},
		{name: "terminal infinity is exempt", commit: vtime.Infinity, floor: 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := NewChecker(1)
			if tc.transitTS != 0 {
				c.OnSent(evPkt(1, tc.transitTS))
			}
			c.OnCommitGVT(0, tc.commit)
			c.Fold(tc.floor)
			rep := c.Report()
			if tc.wantRule == "" {
				if rep.ViolationsTotal > 0 {
					t.Fatalf("unexpected violations: %v", rules(rep))
				}
				return
			}
			wantViolation(t, rep, tc.wantRule)
		})
	}
}

// TestFoldJudgesAtTheHorizon pins what one Fold sees: every node's sends
// before any node's deliveries, and commits judged against the in-transit
// set as it stands after the whole window — so a message delivered in the
// commit's own window no longer bounds it (the documented trade).
func TestFoldJudgesAtTheHorizon(t *testing.T) {
	fromNode1 := evPkt(1, 100)
	fromNode1.SrcNode, fromNode1.DstNode = 1, 0
	c := NewChecker(2)
	c.OnDelivered(0, fromNode1) // node 0's log is folded before node 1's
	c.OnSent(fromNode1)
	c.Fold(vtime.Infinity)
	if c.Report().ViolationsTotal > 0 {
		t.Fatalf("a send logged by a later node was not applied first: %v", rules(c.Report()))
	}

	c = NewChecker(2)
	c.OnSent(evPkt(2, 100))
	c.OnCommitGVT(0, 150)
	c.OnDelivered(1, evPkt(2, 100))
	c.Fold(200)
	if c.Report().ViolationsTotal > 0 {
		t.Fatalf("a commit was judged against a message its window retired: %v", rules(c.Report()))
	}
	c.OnSent(evPkt(3, 100))
	c.OnCommitGVT(0, 150)
	c.Fold(200)
	wantViolation(t, c.Report(), "gvt-safety")
}

func TestGVTMonotonicityPerNode(t *testing.T) {
	c := NewChecker(2)
	c.OnCommitGVT(0, 100)
	c.OnCommitGVT(1, 50) // other node may lag; no violation
	c.Fold(vtime.Infinity)
	if c.Report().ViolationsTotal > 0 {
		t.Fatalf("cross-node lag flagged: %v", rules(c.Report()))
	}
	c.OnCommitGVT(0, 90) // regression on node 0
	c.Fold(vtime.Infinity)
	wantViolation(t, c.Report(), "gvt-monotonic")
	if c.Report().GVTCommits != 3 {
		t.Fatalf("GVTCommits = %d", c.Report().GVTCommits)
	}
}

func TestConservationCatchesLeaksAndGhosts(t *testing.T) {
	t.Run("leak", func(t *testing.T) {
		c := NewChecker(2)
		c.OnSent(evPkt(1, 100))
		c.OnSent(evPkt(2, 200))
		c.OnDelivered(1, evPkt(1, 100))
		c.Fold(vtime.Infinity)
		c.CheckTransitEmpty()
		wantViolation(t, c.Report(), "transit-leak")
	})
	t.Run("ghost delivery", func(t *testing.T) {
		c := NewChecker(2)
		c.OnDelivered(1, evPkt(9, 100))
		c.Fold(vtime.Infinity)
		wantViolation(t, c.Report(), "transit-unknown")
	})
	t.Run("double delivery", func(t *testing.T) {
		c := NewChecker(2)
		c.OnSent(evPkt(1, 100))
		c.OnDelivered(1, evPkt(1, 100))
		c.OnDelivered(1, evPkt(1, 100))
		c.Fold(vtime.Infinity)
		wantViolation(t, c.Report(), "transit-unknown")
	})
	t.Run("bip duplicate is not a double delivery", func(t *testing.T) {
		c := NewChecker(2)
		c.OnSent(evPkt(1, 100))
		c.OnDelivered(1, evPkt(1, 100))
		c.OnDuplicate(1, evPkt(1, 100)) // fabric dup, discarded by BIP
		c.Fold(vtime.Infinity)
		c.CheckTransitEmpty()
		if c.Report().ViolationsTotal > 0 {
			t.Fatalf("unexpected violations: %v", rules(c.Report()))
		}
		if c.Report().Duplicates != 1 {
			t.Fatalf("Duplicates = %d", c.Report().Duplicates)
		}
	})
	t.Run("legit retransmission of same identity", func(t *testing.T) {
		// Same semantic identity sent twice (a re-executed event after
		// rollback), delivered twice: conserved, not a violation.
		c := NewChecker(2)
		c.OnSent(evPkt(1, 100))
		c.OnSent(evPkt(1, 100))
		c.OnDelivered(1, evPkt(1, 100))
		c.OnDelivered(1, evPkt(1, 100))
		c.Fold(vtime.Infinity)
		c.CheckTransitEmpty()
		if c.Report().ViolationsTotal > 0 {
			t.Fatalf("unexpected violations: %v", rules(c.Report()))
		}
	})
	t.Run("antis tracked distinctly", func(t *testing.T) {
		c := NewChecker(2)
		ev := evPkt(1, 100)
		anti := evPkt(1, 100)
		anti.Kind = proto.KindAnti
		c.OnSent(ev)
		c.OnSent(anti)
		c.OnDelivered(1, anti)
		c.Fold(vtime.Infinity)
		c.CheckTransitEmpty() // the positive event still in flight
		wantViolation(t, c.Report(), "transit-leak")
	})
}

func TestQuiescenceChecksTable(t *testing.T) {
	cases := []struct {
		name     string
		run      func(c *Checker)
		wantRule string // "" = clean
	}{
		{name: "credit pair conserved",
			run: func(c *Checker) { c.CheckCreditPair(0, 1, 60, 4, 64) }},
		{name: "credit pair stranded",
			run:      func(c *Checker) { c.CheckCreditPair(0, 1, 60, 3, 64) },
			wantRule: "credit-conservation"},
		{name: "bip holes match drops",
			run: func(c *Checker) { c.CheckBIPPair(0, 1, 2, 10, 9, 3) }},
		{name: "bip hole without a drop",
			run:      func(c *Checker) { c.CheckBIPPair(0, 1, 2, 10, 8, 1) },
			wantRule: "bip-gap-accounting"},
		{name: "bip accepted beyond stamped",
			run:      func(c *Checker) { c.CheckBIPPair(0, 1, 0, 5, 6, 0) },
			wantRule: "bip-gap-accounting"},
		{name: "ledgers drained",
			run: func(c *Checker) { c.CheckDrained(0, 0, 0) }},
		{name: "refund ledger undrained",
			run:      func(c *Checker) { c.CheckDrained(0, 2, 0) },
			wantRule: "credit-undrained"},
		{name: "no zombies",
			run: func(c *Checker) { c.CheckZombies(0, 0, 0) }},
		{name: "zombies",
			run:      func(c *Checker) { c.CheckZombies(0, 3, 0) },
			wantRule: "anti-annihilation"},
		{name: "drop records left in the buffer",
			run:      func(c *Checker) { c.CheckZombies(0, 0, 2) },
			wantRule: "anti-annihilation"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := NewChecker(2)
			tc.run(c)
			rep := c.Report()
			if tc.wantRule == "" {
				if rep.ViolationsTotal > 0 {
					t.Fatalf("unexpected violations: %v", rules(rep))
				}
				return
			}
			wantViolation(t, rep, tc.wantRule)
			if !strings.Contains(rep.Violations[0].Detail, " ") {
				t.Fatal("violation detail is not human-readable")
			}
		})
	}
}

func TestViolationCapBoundsReport(t *testing.T) {
	c := NewChecker(1)
	for i := 0; i < maxViolations+50; i++ {
		c.OnDelivered(0, evPkt(uint64(i+1), 100)) // every one a ghost
	}
	c.Fold(vtime.Infinity)
	rep := c.Report()
	if len(rep.Violations) != maxViolations {
		t.Fatalf("kept %d violations, want cap %d", len(rep.Violations), maxViolations)
	}
	if rep.ViolationsTotal != int64(maxViolations+50) {
		t.Fatalf("ViolationsTotal = %d, want %d", rep.ViolationsTotal, maxViolations+50)
	}
}
