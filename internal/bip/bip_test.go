package bip

import (
	"testing"

	"nicwarp/internal/proto"
)

func pkt(src, dst int32, seq uint64) *proto.Packet {
	return &proto.Packet{Kind: proto.KindEvent, SrcNode: src, DstNode: dst, Seq: seq}
}

func TestStampAssignsPerDestinationSequences(t *testing.T) {
	e := New(0)
	a := pkt(0, 1, 0)
	b := pkt(0, 1, 0)
	c := pkt(0, 2, 0)
	e.Stamp(a)
	e.Stamp(b)
	e.Stamp(c)
	if a.Seq != 1 || b.Seq != 2 {
		t.Fatalf("seqs to node 1: %d, %d", a.Seq, b.Seq)
	}
	if c.Seq != 1 {
		t.Fatalf("seq to node 2: %d (independent stream expected)", c.Seq)
	}
	if e.StampedTo(1) != 2 || e.StampedTo(2) != 1 || e.StampedTo(3) != 0 {
		t.Fatalf("stamped to nodes 1, 2, 3: %d, %d, %d", e.StampedTo(1), e.StampedTo(2), e.StampedTo(3))
	}
}

func TestStampWrongNodePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(0).Stamp(pkt(3, 1, 0))
}

func TestAcceptInOrder(t *testing.T) {
	e := New(1)
	for seq := uint64(1); seq <= 5; seq++ {
		if _, missing := e.AcceptV(pkt(0, 1, seq)); missing != 0 {
			t.Fatalf("seq %d: missing = %d", seq, missing)
		}
	}
	if e.GapsDetected.Value() != 0 {
		t.Fatal("phantom gap")
	}
}

func TestAcceptDetectsGap(t *testing.T) {
	e := New(1)
	e.AcceptV(pkt(0, 1, 1))
	// Seqs 2,3,4 were dropped by the NIC.
	_, missing := e.AcceptV(pkt(0, 1, 5))
	if missing != 3 {
		t.Fatalf("missing = %d, want 3", missing)
	}
	if e.GapsDetected.Value() != 1 || e.MissingFrom(0) != 3 {
		t.Fatalf("gaps=%d missing=%d", e.GapsDetected.Value(), e.MissingFrom(0))
	}
	// Stream continues normally afterwards.
	if _, missing := e.AcceptV(pkt(0, 1, 6)); missing != 0 {
		t.Fatal("stream did not resume")
	}
}

// TestStrictGapsDoNotAllocate: a strict endpoint never fills a hole, so it
// counts the sequence numbers its gaps skip and keeps no list of where they
// are. Ten thousand gapped arrivals are counted exactly, and the second
// half of them allocates nothing; a list of ranges would still be growing.
func TestStrictGapsDoNotAllocate(t *testing.T) {
	const arrivals = 10_000
	e := New(1)
	var seq uint64
	calls, skipped := 0, 0
	half := func() {
		for range arrivals / 2 {
			calls++
			gap := calls%7 + 1
			seq += uint64(gap) + 1
			skipped += gap
			if v, missing := e.AcceptSeqV(0, seq); v != VerdictFresh || missing != gap {
				t.Errorf("seq %d: verdict %v, %d missing, want fresh with %d", seq, v, missing, gap)
			}
		}
	}
	// AllocsPerRun runs half once to warm up, then once measured.
	allocs := testing.AllocsPerRun(1, half)
	if calls != arrivals {
		t.Fatalf("%d arrivals, want %d", calls, arrivals)
	}
	if got := e.MissingFrom(0); got != skipped {
		t.Fatalf("MissingFrom(0) = %d, want the %d sequence numbers the gaps skipped", got, skipped)
	}
	if got := e.GapsDetected.Value(); got != arrivals {
		t.Fatalf("%d gaps detected, want %d", got, arrivals)
	}
	if allocs != 0 {
		t.Fatalf("%d gapped arrivals allocated %.0f times after warm-up, want 0", arrivals/2, allocs)
	}
}

func TestAcceptPerSourceStreams(t *testing.T) {
	e := New(2)
	for src := int32(0); src < 2; src++ {
		if _, missing := e.AcceptV(pkt(src, 2, 1)); missing != 0 {
			t.Fatal("independent source streams")
		}
	}
}

func TestAcceptSeqZeroSkipsChecking(t *testing.T) {
	e := New(1)
	e.AcceptV(pkt(0, 1, 1))
	tok := &proto.Packet{Kind: proto.KindGVTToken, SrcNode: 0, DstNode: 1, Seq: 0}
	if v, missing := e.AcceptV(tok); v != VerdictFresh || missing != 0 {
		t.Fatal("NIC-originated packet must bypass sequencing")
	}
	if _, missing := e.AcceptV(pkt(0, 1, 2)); missing != 0 {
		t.Fatal("stream disturbed by seq-0 packet")
	}
}

func TestAcceptDuplicatePanics(t *testing.T) {
	e := New(1)
	e.AcceptV(pkt(0, 1, 1))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e.AcceptV(pkt(0, 1, 1))
}

// TestTolerantClassification drives one tolerant-mode endpoint through
// arrival sequences that mix deliberate NIC drops (permanent holes),
// retransmissions (late fills) and fabric duplicates, and checks every
// per-packet verdict plus the final hole accounting. This is the
// classification layer the fault plane's duplicate-drop scenarios and the
// bip-gap-accounting invariant lean on.
func TestTolerantClassification(t *testing.T) {
	type step struct {
		seq         uint64
		wantVerdict Verdict
		wantMissing int // newly detected missing seqs for this arrival
	}
	cases := []struct {
		name            string
		steps           []step
		wantOutstanding int   // open holes from src 0 at the end
		wantLateFilled  int64 // LateFilled counter at the end
		wantDuplicates  int64 // Duplicates counter at the end
	}{
		{
			name: "in-order stream stays clean",
			steps: []step{
				{1, VerdictFresh, 0}, {2, VerdictFresh, 0}, {3, VerdictFresh, 0},
			},
		},
		{
			name: "single drop leaves a permanent hole",
			steps: []step{
				{1, VerdictFresh, 0}, {3, VerdictFresh, 1},
			},
			wantOutstanding: 1,
		},
		{
			name: "retransmission fills its hole exactly once",
			steps: []step{
				{1, VerdictFresh, 0},
				{3, VerdictFresh, 1},     // gap: 2 missing
				{2, VerdictLate, 0},      // retransmit fills it
				{2, VerdictDuplicate, 0}, // second copy is a duplicate
			},
			wantLateFilled: 1,
			wantDuplicates: 1,
		},
		{
			name: "duplicate of a delivered packet never reopens the stream",
			steps: []step{
				{1, VerdictFresh, 0}, {2, VerdictFresh, 0},
				{1, VerdictDuplicate, 0}, {2, VerdictDuplicate, 0},
				{3, VerdictFresh, 0},
			},
			wantDuplicates: 2,
		},
		{
			name: "duplicate inside an open gap is not a fill",
			steps: []step{
				{2, VerdictFresh, 1},     // gap: 1 missing
				{2, VerdictDuplicate, 0}, // dup of the delivered packet, hole stays
			},
			wantOutstanding: 1,
			wantDuplicates:  1,
		},
		{
			name: "reordered burst resolves to no holes",
			steps: []step{
				{1, VerdictFresh, 0},
				{4, VerdictFresh, 2}, // gap: 2,3 missing
				{3, VerdictLate, 0},
				{2, VerdictLate, 0},
				{5, VerdictFresh, 0},
			},
			wantLateFilled: 2,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := New(1)
			e.SetTolerant(true)
			for i, s := range tc.steps {
				v, missing := e.AcceptV(pkt(0, 1, s.seq))
				if v != s.wantVerdict || missing != s.wantMissing {
					t.Fatalf("step %d (seq %d): got (%v, %d), want (%v, %d)",
						i, s.seq, v, missing, s.wantVerdict, s.wantMissing)
				}
			}
			if got := e.MissingFrom(0); got != tc.wantOutstanding {
				t.Errorf("MissingFrom(0) = %d, want %d", got, tc.wantOutstanding)
			}
			if got := e.LateFilled.Value(); got != tc.wantLateFilled {
				t.Errorf("LateFilled = %d, want %d", got, tc.wantLateFilled)
			}
			if got := e.Duplicates.Value(); got != tc.wantDuplicates {
				t.Errorf("Duplicates = %d, want %d", got, tc.wantDuplicates)
			}
		})
	}
}

// TestTolerantHolesArePerSource checks hole bookkeeping does not bleed
// between source streams.
func TestTolerantHolesArePerSource(t *testing.T) {
	e := New(2)
	e.SetTolerant(true)
	e.AcceptV(pkt(0, 2, 2)) // src 0: hole at 1
	e.AcceptV(pkt(1, 2, 3)) // src 1: holes at 1,2
	if e.MissingFrom(0) != 1 || e.MissingFrom(1) != 2 {
		t.Fatalf("per-source holes = %d,%d, want 1,2", e.MissingFrom(0), e.MissingFrom(1))
	}
	// src 1's seq-1 fill must not touch src 0's hole at the same number.
	if v, _ := e.AcceptV(pkt(1, 2, 1)); v != VerdictLate {
		t.Fatalf("src 1 retransmit verdict = %v, want late", v)
	}
	if e.MissingFrom(0) != 1 || e.MissingFrom(1) != 1 {
		t.Fatalf("after fill: per-source holes = %d,%d, want 1,1", e.MissingFrom(0), e.MissingFrom(1))
	}
}

// TestPeerTablesGrowOnDemand: the per-destination and per-source sequence
// tables are indexed by node id and grown to the highest peer touched.
// Reaching a peer beyond every one seen so far, in any order, starts its
// stream at 1 and disturbs no other stream — what the maps the tables
// replaced did.
func TestPeerTablesGrowOnDemand(t *testing.T) {
	for _, peers := range [][]int32{
		{1, 5, 900},
		{900, 5, 1},
		{5, 1023, 5, 7, 1023},
	} {
		tx, rx := New(0), New(2000)
		want := map[int32]uint64{}
		for _, peer := range peers {
			if tx.StampedTo(peer) != want[peer] || rx.HighestFrom(peer) != want[peer] {
				t.Fatalf("%v: peer %d reads %d/%d before its next packet, want %d", peers, peer,
					tx.StampedTo(peer), rx.HighestFrom(peer), want[peer])
			}
			want[peer]++
			out := pkt(0, peer, 0)
			tx.Stamp(out)
			if out.Seq != want[peer] {
				t.Fatalf("%v: stamp toward %d = %d, want %d", peers, peer, out.Seq, want[peer])
			}
			if v, missing := rx.AcceptV(pkt(peer, 2000, want[peer])); v != VerdictFresh || missing != 0 {
				t.Fatalf("%v: in-order packet from %d classified %v with %d missing", peers, peer, v, missing)
			}
		}
		for peer, seq := range want {
			if tx.StampedTo(peer) != seq || rx.HighestFrom(peer) != seq {
				t.Fatalf("%v: peer %d ends at %d/%d, want %d", peers, peer, tx.StampedTo(peer), rx.HighestFrom(peer), seq)
			}
		}
		// Peers inside the tables' range but never touched, past it, and the
		// broadcast id all read as untouched.
		for _, peer := range []int32{2, 1500, -1} {
			if tx.StampedTo(peer) != 0 || rx.HighestFrom(peer) != 0 || rx.MissingFrom(peer) != 0 {
				t.Fatalf("%v: untouched peer %d has state", peers, peer)
			}
		}
	}
}

func TestStampBroadcastPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("a broadcast belongs to no per-destination stream and must not be stamped")
		}
	}()
	New(0).Stamp(pkt(0, -1, 0))
}

// mapHoles is the hole bookkeeping the endpoint had before the range list,
// kept verbatim as FuzzAcceptSeqV's model: one map entry per missing
// sequence number.
type mapHoles struct {
	expect  map[int32]uint64
	missing map[int32]map[uint64]struct{}
}

func (m *mapHoles) accept(src int32, seq uint64) (Verdict, int) {
	want := m.expect[src] + 1
	if seq < want {
		if holes := m.missing[src]; holes != nil {
			if _, open := holes[seq]; open {
				delete(holes, seq)
				return VerdictLate, 0
			}
		}
		return VerdictDuplicate, 0
	}
	missing := 0
	if seq > want {
		missing = int(seq - want)
		holes := m.missing[src]
		if holes == nil {
			holes = make(map[uint64]struct{})
			m.missing[src] = holes
		}
		for s := want; s < seq; s++ {
			holes[s] = struct{}{}
		}
	}
	m.expect[src] = seq
	return VerdictFresh, missing
}

// FuzzAcceptSeqV drives a tolerant endpoint and the map model with the same
// arbitrary (source, sequence) stream — three bytes per arrival: a source
// among four and a sequence number below 1024, so streams regress, jump and
// refill constantly. Every verdict and gap width must agree, MissingFrom
// must agree for every source after every call, and the range list must
// stay ascending, disjoint and consistent with its running count.
func FuzzAcceptSeqV(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0, 0, 2, 0, 0, 3, 0})                   // in order
	f.Add([]byte{0, 9, 0, 0, 5, 0, 0, 5, 0, 0, 1, 0, 0, 8, 0}) // one gap: split, refill, trim both ends
	f.Add([]byte{1, 4, 0, 1, 9, 0, 1, 7, 0, 1, 2, 0, 1, 3, 0, 1, 1, 0, 1, 6, 0, 1, 5, 0, 1, 8, 0})
	f.Add([]byte{0, 0xff, 3, 1, 0xff, 3, 0, 0, 2, 1, 0, 1, 0, 0, 0, 2, 1, 0, 3, 2, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		const sources = 4
		e := New(sources)
		e.SetTolerant(true)
		model := &mapHoles{expect: map[int32]uint64{}, missing: map[int32]map[uint64]struct{}{}}
		for step := 0; len(data) >= 3; step, data = step+1, data[3:] {
			src := int32(data[0] % sources)
			seq := (uint64(data[1]) | uint64(data[2])<<8) % 1024
			gotV, gotMissing := e.AcceptSeqV(src, seq)
			wantV, wantMissing := model.accept(src, seq)
			if gotV != wantV || gotMissing != wantMissing {
				t.Fatalf("step %d (src %d seq %d): got (%v, %d), model (%v, %d)",
					step, src, seq, gotV, gotMissing, wantV, wantMissing)
			}
			for s := int32(0); s < sources; s++ {
				if got, want := e.MissingFrom(s), len(model.missing[s]); got != want {
					t.Fatalf("step %d (src %d seq %d): MissingFrom(%d) = %d, model %d", step, src, seq, s, got, want)
				}
			}
			for s := range e.missing {
				h, covered, prev := &e.missing[s], 0, uint64(0)
				for i, r := range h.ranges {
					if r.lo > r.hi || (i > 0 && r.lo <= prev) {
						t.Fatalf("step %d: source %d ranges not ascending and disjoint: %v", step, s, h.ranges)
					}
					prev = r.hi
					covered += int(r.hi - r.lo + 1)
				}
				if covered != h.count {
					t.Fatalf("step %d: source %d ranges %v cover %d, count %d", step, s, h.ranges, covered, h.count)
				}
			}
		}
	})
}
