// Package invariant implements runtime oracles for the protocol
// invariants the paper's NIC optimizations must preserve. The checker is
// wired into the cluster via hooks (message send/delivery/NIC-discard,
// GVT commit) and a set of quiescence checks the cluster runs after the
// simulation drains:
//
//   - GVT safety: no committed GVT estimate ever exceeds the true
//     minimum over all LVTs and in-transit message timestamps, and the
//     sequence of commits per node is monotonic.
//   - Message conservation: every event or anti-message that leaves a
//     host is eventually delivered or deliberately discarded at a NIC —
//     nothing is silently lost or delivered twice.
//   - Credit conservation: at quiescence, for every (sender, receiver)
//     pair the sender's remaining credit plus the receiver's owed credit
//     equals the flow-control window — no stranded credits.
//   - BIP gap accounting: every permanent hole in a receiver's sequence
//     space is attributable to a deliberate NIC drop, hole-for-drop.
//   - Anti annihilation: no unmatched anti-message survives quiescence,
//     on a host or as an unconsumed record in a NIC's drop buffer.
//
// Hooks only log. Each appends a record to its node's log, which only that
// node's engine writes; Fold, called at each window barrier of the run's
// des.Group, is the one reader. At a barrier every engine has run exactly
// the events below the window horizon, and the horizons are the same at
// any shard count, so the report is byte-identical serial and sharded —
// the gvt-safety check included.
//
// The trade: a commit is judged against the true bound at the horizon of
// the window it was made in (at most one lookahead, 6.861 µs at default
// hardware, later), not at the instant it was made. The true bound never
// falls during a run, so a commit that was safe when made always passes;
// a commit made unsafe by a message that arrives and executes within that
// same window can go unreported.
package invariant

import (
	"fmt"
	"math"

	"nicwarp/internal/proto"
	"nicwarp/internal/vtime"
)

// minVTime is the monotonicity sentinel: below any committable estimate.
const minVTime = vtime.VTime(math.MinInt64)

// TransitKey identifies one in-transit message for conservation
// accounting. The key is the full semantic identity of a message, so a
// faulty duplicate delivery (same identity twice) is caught while a
// legitimate retransmission (same identity, delivered once) is not.
type TransitKey struct {
	SrcNode, DstNode int32
	SrcObj, DstObj   int32
	SendTS, RecvTS   vtime.VTime
	EventID          uint64
	Anti             bool
}

// Violation is one observed invariant breach.
type Violation struct {
	// Rule names the invariant ("gvt-safety", "gvt-monotonic",
	// "transit-unknown", "transit-leak", "credit-conservation",
	// "bip-gap-accounting", "credit-undrained", "anti-annihilation").
	Rule string
	// Node is the node the violation was observed at (-1 if global).
	Node int
	// Detail is a human-readable description with the offending values.
	Detail string
}

// maxViolations caps the violations kept in the report; past the cap only
// the total is counted, so a hostile scenario cannot balloon the report.
const maxViolations = 64

// Report is the plain-data outcome of a checked run.
type Report struct {
	Sent       int64
	Delivered  int64
	Discarded  int64
	Duplicates int64 // duplicate deliveries the checker was told about
	GVTCommits int64
	// Violations holds the first maxViolations breaches, in the order Fold
	// judged them; ViolationsTotal counts all.
	Violations      []Violation
	ViolationsTotal int64
}

// Checker is the runtime oracle for one cluster.
type Checker struct {
	logs    [][]record // per node, appended by that node's hooks since the last Fold
	transit map[TransitKey]int
	lastGVT []vtime.VTime // per node, last committed estimate
	rep     Report
}

// recKind tags one logged hook call.
type recKind uint8

const (
	recSent recKind = iota
	recDelivered
	recDuplicate
	recDiscard
	recCommit
)

// record is one hook call awaiting the next Fold: the message's identity,
// or the committed GVT estimate.
type record struct {
	kind recKind
	key  TransitKey
	gvt  vtime.VTime
}

// NewChecker returns a checker for a cluster of nodes.
func NewChecker(nodes int) *Checker {
	c := &Checker{
		logs:    make([][]record, nodes),
		transit: make(map[TransitKey]int),
		lastGVT: make([]vtime.VTime, nodes),
	}
	for i := range c.lastGVT {
		c.lastGVT[i] = minVTime
	}
	return c
}

func key(pkt *proto.Packet) TransitKey {
	return TransitKey{
		SrcNode: pkt.SrcNode, DstNode: pkt.DstNode,
		SrcObj: pkt.SrcObj, DstObj: pkt.DstObj,
		SendTS: pkt.SendTS, RecvTS: pkt.RecvTS,
		EventID: pkt.EventID, Anti: pkt.IsAnti(),
	}
}

func (c *Checker) violate(rule string, node int, format string, args ...interface{}) {
	c.rep.ViolationsTotal++
	if len(c.rep.Violations) < maxViolations {
		c.rep.Violations = append(c.rep.Violations, Violation{
			Rule: rule, Node: node, Detail: fmt.Sprintf(format, args...),
		})
	}
}

// logMsg appends an event-like message's record to node's log.
func (c *Checker) logMsg(node int, kind recKind, pkt *proto.Packet) {
	if pkt.IsEventLike() {
		c.logs[node] = append(c.logs[node], record{kind: kind, key: key(pkt)})
	}
}

// OnSent records an event-like message leaving its source host toward the
// NIC.
func (c *Checker) OnSent(pkt *proto.Packet) { c.logMsg(int(pkt.SrcNode), recSent, pkt) }

// OnDelivered records an event-like message accepted by the destination
// host. The caller must have already discarded BIP duplicates.
func (c *Checker) OnDelivered(node int, pkt *proto.Packet) { c.logMsg(node, recDelivered, pkt) }

// OnDuplicate records a BIP-identified duplicate delivery (discarded by
// the host, so no transit record is retired).
func (c *Checker) OnDuplicate(node int, pkt *proto.Packet) { c.logMsg(node, recDuplicate, pkt) }

// OnNICDiscard records a deliberate transmit-side NIC discard (early
// cancellation or anti suppression) of a host-submitted message.
func (c *Checker) OnNICDiscard(node int, pkt *proto.Packet) { c.logMsg(node, recDiscard, pkt) }

// OnCommitGVT records one node's committed GVT estimate g, judged at the
// next Fold.
func (c *Checker) OnCommitGVT(node int, g vtime.VTime) {
	c.logs[node] = append(c.logs[node], record{kind: recCommit, gvt: g})
}

// Fold applies every logged record and empties the logs. floor is the
// caller's minimum over local LVTs and host-buffered messages at the
// moment of the call, which must be a window barrier (or after the run).
// Every node's sends go first: a message cannot arrive in the window it was
// sent in, but its sender's NIC can discard it there. Then, in node order,
// deliveries, discards and duplicates retire what they name; last, each
// commit is checked for per-node monotonicity and for safety against
// min(floor, in-transit minimum). A terminal commit of Infinity is only
// checked for monotonicity.
func (c *Checker) Fold(floor vtime.VTime) {
	for _, log := range c.logs {
		for _, r := range log {
			if r.kind == recSent {
				c.rep.Sent++
				c.transit[r.key]++
			}
		}
	}
	for node, log := range c.logs {
		for _, r := range log {
			switch r.kind {
			case recDelivered:
				c.rep.Delivered++
				c.retire(node, r.key, "delivered message never sent (or delivered twice)")
			case recDiscard:
				c.rep.Discarded++
				c.retire(node, r.key, "NIC discarded message never sent")
			case recDuplicate:
				c.rep.Duplicates++
			}
		}
	}
	limit := minVTime // the true bound, computed at the first commit that needs it
	for node, log := range c.logs {
		for _, r := range log {
			if r.kind != recCommit {
				continue
			}
			g := r.gvt
			c.rep.GVTCommits++
			if g < c.lastGVT[node] {
				c.violate("gvt-monotonic", node, "GVT regressed: %v after %v", g, c.lastGVT[node])
			}
			c.lastGVT[node] = g
			if g.IsInf() {
				continue
			}
			if limit == minVTime {
				limit = vtime.MinV(floor, c.minTransit())
			}
			if g > limit {
				c.violate("gvt-safety", node, "GVT %v exceeds true bound %v", g, limit)
			}
		}
		c.logs[node] = log[:0]
	}
}

// retire removes one in-transit record for k, or reports why it cannot.
func (c *Checker) retire(node int, k TransitKey, unknown string) {
	switch n := c.transit[k]; {
	case n <= 0:
		c.violate("transit-unknown", node, "%s: %v", unknown, k)
	case n == 1:
		delete(c.transit, k)
	default:
		c.transit[k] = n - 1
	}
}

// minTransit returns the minimum receive timestamp over all in-transit
// messages, or Infinity when none are in flight.
func (c *Checker) minTransit() vtime.VTime {
	min := vtime.Infinity
	//nicwarp:ordered commutative min fold
	for k := range c.transit {
		if k.RecvTS < min {
			min = k.RecvTS
		}
	}
	return min
}

// CheckCreditPair verifies credit conservation for one (sender, receiver)
// pair at quiescence: remaining credit at the sender plus credit owed at
// the receiver must equal the flow-control window.
func (c *Checker) CheckCreditPair(sender, receiver int, credits, owed, window int) {
	if credits+owed != window {
		c.violate("credit-conservation", sender,
			"credits toward node %d do not conserve: %d available + %d owed != window %d",
			receiver, credits, owed, window)
	}
}

// CheckBIPPair verifies gap accounting for one (sender, receiver) pair at
// quiescence: the receiver's still-open sequence holes plus the
// undelivered tail of the sender's stamp space must exactly equal the
// sender NIC's deliberate drop count toward that receiver.
func (c *Checker) CheckBIPPair(sender, receiver int, openHoles int, stamped, highest uint64, nicDrops int64) {
	if highest > stamped {
		c.violate("bip-gap-accounting", receiver,
			"accepted seq %d from node %d above last stamped %d", highest, sender, stamped)
		return
	}
	tail := int64(stamped - highest)
	if int64(openHoles)+tail != nicDrops {
		c.violate("bip-gap-accounting", receiver,
			"holes from node %d do not match NIC drops: %d open + %d tail != %d dropped",
			sender, openHoles, tail, nicDrops)
	}
}

// CheckDrained verifies the NIC-to-host refund ledgers were fully drained
// at quiescence (undrained entries are credits lost in the shared
// window).
func (c *Checker) CheckDrained(node int, refundLeft, salvageLeft int64) {
	if refundLeft != 0 || salvageLeft != 0 {
		c.violate("credit-undrained", node,
			"shared-window ledgers not drained: %d refund, %d salvage", refundLeft, salvageLeft)
	}
}

// CheckZombies verifies anti-message annihilation at quiescence: no
// unmatched anti-message survives on the host, and every drop the NIC
// recorded was consumed by the anti-message it stood in for.
func (c *Checker) CheckZombies(node, zombies, dropRecords int) {
	if zombies > 0 {
		c.violate("anti-annihilation", node,
			"%d unmatched anti-messages at quiescence", zombies)
	}
	if dropRecords > 0 {
		c.violate("anti-annihilation", node,
			"%d drop records never matched by an anti-message at quiescence", dropRecords)
	}
}

// CheckTransitEmpty verifies message conservation at quiescence: every
// sent message was delivered or deliberately discarded. Fold first.
func (c *Checker) CheckTransitEmpty() {
	if n := len(c.transit); n > 0 {
		c.violate("transit-leak", -1,
			"%d messages neither delivered nor discarded (min RecvTS %v)", n, c.minTransit())
	}
}

// Report returns the accumulated report. Call after the quiescence
// checks; the returned pointer aliases the checker's state.
func (c *Checker) Report() *Report { return &c.rep }
