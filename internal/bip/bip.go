// Package bip models the Basic Interface for Parallelism, the user-level
// Myrinet messaging layer the paper's cluster runs (Geoffray et al.): it
// assigns per-destination sequence numbers on the send side and verifies
// them on the receive side.
//
// Sequence numbers matter to the reproduction because early cancellation
// deliberately drops packets: "for one BIP maintains sequence numbers to
// help in the ordering of packets making it necessary to turn off sequence
// numbers while implementing packet dropping ... We address this problem by
// enabling sequence numbers in MPICH so that lost packets can immediately
// be detected". Here the receive side detects gaps — which, on the reliable
// FIFO fabric, can only be deliberate drops — and reports them upward
// instead of treating them as loss.
//
// The endpoint has two modes. In the default strict mode any sequence
// regression (duplicate or reordering) is a protocol error: the fabric is
// FIFO per path, so a regression can only be a model bug, and the endpoint
// panics. Tolerant mode (SetTolerant) exists for the fault-injection
// plane, whose link faults deliberately duplicate, reorder and
// retransmit: there the endpoint keeps a per-source list of outstanding
// missing sequence ranges so a late arrival fills its hole exactly once
// and a genuine duplicate is identified and discarded — the classifying
// layer real BIP's sequence numbers make possible.
package bip

import (
	"fmt"
	"slices"

	"nicwarp/internal/dense"
	"nicwarp/internal/proto"
	"nicwarp/internal/stats"
)

// Verdict classifies one received packet against the sequence stream.
type Verdict int

const (
	// VerdictFresh is a packet at (or beyond) the expected sequence
	// number; beyond opens a gap.
	VerdictFresh Verdict = iota
	// VerdictLate is a packet filling a previously detected gap (only in
	// tolerant mode — a retransmitted or long-delayed packet).
	VerdictLate
	// VerdictDuplicate is a packet already delivered; the caller must
	// discard it without side effects.
	VerdictDuplicate
)

// String implements fmt.Stringer.
func (v Verdict) String() string {
	switch v {
	case VerdictFresh:
		return "fresh"
	case VerdictLate:
		return "late"
	case VerdictDuplicate:
		return "duplicate"
	default:
		return fmt.Sprintf("Verdict(%d)", int(v))
	}
}

// Endpoint is one node's BIP instance.
type Endpoint struct {
	node     int
	tolerant bool
	// nextSeq and expect are indexed by node id, each grown to the highest
	// peer it has been asked about; a peer beyond them has seen no traffic.
	nextSeq []uint64 // per destination, last sequence assigned
	expect  []uint64 // per source, last sequence accepted
	// missing tracks, per source (indexed by node id like expect), the
	// sequence numbers inside detected gaps that have not yet been filled
	// by a late arrival. In strict mode holes are never filled (deliberate
	// NIC drops on a FIFO fabric are permanent), so the record is exactly
	// the permanent-hole count the invariant checker reconciles against
	// the sender NIC's drop counts.
	missing []holes

	// Stats.
	GapsDetected stats.Counter // receive-side gap episodes
	MissingSeqs  stats.Counter // total sequence numbers skipped at detection time
	LateFilled   stats.Counter // gap holes later filled by a late arrival
	Duplicates   stats.Counter // duplicate deliveries identified and discarded
}

// holes is one source's open sequence holes: disjoint inclusive ranges in
// ascending order, and how many sequence numbers they cover. A gap always
// opens above everything seen so far, so detection appends one range
// whatever the gap's width; only a tolerant-mode late fill searches.
type holes struct {
	ranges []seqRange
	count  int
}

// seqRange is the inclusive run lo..hi of missing sequence numbers.
type seqRange struct{ lo, hi uint64 }

// fill closes the hole at seq, reporting whether one was open there.
func (h *holes) fill(seq uint64) bool {
	i, open := slices.BinarySearchFunc(h.ranges, seq, func(r seqRange, seq uint64) int {
		switch {
		case r.hi < seq:
			return -1
		case r.lo > seq:
			return 1
		}
		return 0
	})
	if !open {
		return false
	}
	switch r := &h.ranges[i]; {
	case r.lo == r.hi:
		h.ranges = slices.Delete(h.ranges, i, i+1)
	case seq == r.lo:
		r.lo++
	case seq == r.hi:
		r.hi--
	default:
		upper := seqRange{lo: seq + 1, hi: r.hi}
		r.hi = seq - 1
		h.ranges = slices.Insert(h.ranges, i+1, upper)
	}
	h.count--
	return true
}

// New creates the endpoint for a node.
func New(node int) *Endpoint {
	return &Endpoint{node: node}
}

// SetTolerant switches the endpoint between strict mode (regressions
// panic) and tolerant mode (regressions are classified as late fills or
// duplicates). Call before traffic flows.
func (e *Endpoint) SetTolerant(v bool) { e.tolerant = v }

// Stamp assigns the next sequence number for the packet's destination.
// Sequence numbers start at 1; zero marks NIC-originated packets that never
// entered the host-side BIP library.
func (e *Endpoint) Stamp(pkt *proto.Packet) {
	if int(pkt.SrcNode) != e.node {
		panic(fmt.Sprintf("bip: node %d stamping packet from node %d", e.node, pkt.SrcNode))
	}
	if pkt.DstNode < 0 {
		// Sequence streams are per destination; a broadcast belongs to none.
		panic(fmt.Sprintf("bip: node %d stamping a broadcast packet", e.node))
	}
	e.nextSeq = dense.Grow(e.nextSeq, pkt.DstNode, 0)
	e.nextSeq[pkt.DstNode]++
	pkt.Seq = e.nextSeq[pkt.DstNode]
}

// AcceptV verifies the packet's sequence number against the per-source
// expectation. It returns the packet's verdict and, for a fresh packet
// that opened a gap, how many sequence numbers were skipped.
//
// In strict mode a sequence regression panics: on the reliable FIFO
// fabric it can only be a model bug. In tolerant mode a regression is
// either a late arrival filling a known hole (deliver it) or a duplicate
// (discard it).
func (e *Endpoint) AcceptV(pkt *proto.Packet) (Verdict, int) {
	if pkt.Seq == 0 {
		return VerdictFresh, 0 // NIC-originated packet outside the BIP stream
	}
	return e.AcceptSeqV(pkt.SrcNode, pkt.Seq)
}

// AcceptSeqV is AcceptV on a bare (source, sequence) pair, for callers
// that verify sub-messages unpacked from a batch frame: each sub-message
// occupies its own slot in the per-source stream, so a frame is accepted
// sequence by sequence and an assembly-time drop inside the frame's range
// surfaces here as an ordinary gap.
func (e *Endpoint) AcceptSeqV(src int32, seq uint64) (Verdict, int) {
	e.expect = dense.Grow(e.expect, src, 0)
	want := e.expect[src] + 1
	if seq < want {
		if !e.tolerant {
			panic(fmt.Sprintf("bip: node %d got stale/duplicate seq %d from node %d (want >= %d)",
				e.node, seq, src, want))
		}
		if int(src) < len(e.missing) && e.missing[src].fill(seq) {
			e.LateFilled.Inc()
			return VerdictLate, 0
		}
		e.Duplicates.Inc()
		return VerdictDuplicate, 0
	}
	missing := 0
	if seq > want {
		missing = int(seq - want)
		e.GapsDetected.Inc()
		e.MissingSeqs.Add(int64(missing))
		e.missing = dense.Grow(e.missing, src, holes{})
		h := &e.missing[src]
		h.ranges = append(h.ranges, seqRange{lo: want, hi: seq - 1})
		h.count += missing
	}
	e.expect[src] = seq
	return VerdictFresh, missing
}

// MissingFrom returns the number of still-open sequence holes from src.
func (e *Endpoint) MissingFrom(src int32) int { return dense.At(e.missing, src).count }

// StampedTo returns the highest sequence number stamped toward dst.
func (e *Endpoint) StampedTo(dst int32) uint64 { return dense.At(e.nextSeq, dst) }

// HighestFrom returns the highest sequence number accepted from src.
func (e *Endpoint) HighestFrom(src int32) uint64 { return dense.At(e.expect, src) }
