package nic

import (
	"fmt"

	"nicwarp/internal/dense"
	"nicwarp/internal/proto"
	"nicwarp/internal/vtime"
)

// SharedWindow is the "global buffer shared between the host and the NIC"
// through which the paper's host and firmware halves exchange state. It is
// passive memory: the cost of touching it is charged by whichever side
// performs the access (host SharedWrite cost, NIC cycles).
//
// Field names follow the paper's variable names where it gives them
// (GvtTokenPending, ReceivedHostVariables, V, T, Tmin). The paper's rank
// report, TimewarpInitialised and ControlMessagePending have no reader
// here: firmware knows its node from the NIC, and the NotifyGVTControl
// doorbell is the pending control message.
type SharedWindow struct {
	// ---- NIC-level GVT handshake state ----

	// GVTTokenPending: a GVT computation is in progress at this NIC; while
	// ReceivedHostVariables is false it waits for the host's variables.
	GVTTokenPending bool
	// ReceivedHostVariables: the host has processed the pending control
	// message and its (T, Tmin, V) values came off the last outgoing
	// message or doorbell.
	ReceivedHostVariables bool
	// HostT, HostTMin, HostV are the host-reported Mattern variables.
	HostT    vtime.VTime
	HostTMin vtime.VTime
	HostV    int64
	// Token holds the in-progress token while the NIC waits for the host
	// variables.
	Token proto.Token
	// TokenIsInitiation distinguishes a root initiation request staged by
	// the host from a token received off the wire (both wait for host
	// variables in the same fields).
	TokenIsInitiation bool
	// LatestGVT is the most recent GVT value the NIC learned; the host
	// reads it after a NotifyGVTValue doorbell.
	LatestGVT vtime.VTime

	// ---- Early-cancellation state ----

	// Dropped records event IDs of positives the NIC cancelled in place,
	// keyed by sending object, "a buffer of size 10 ... declared in the
	// global structures of the NIC, so that it can be accessed by both the
	// host and the NIC".
	Dropped DropBuffer
	// DroppedWhite counts packets the NIC cancelled in place, by colour
	// stamp. The host GVT manager drains it into its ledger: a dropped
	// message must count as received or the white balance never closes.
	DroppedWhite dense.EpochWindow
	// CreditSalvage counts flow-control credits that were piggybacked on a
	// dropped packet as returned credit for its destination; the host
	// re-books them as owed so they are returned again by later traffic or
	// an explicit credit message. Without salvage, every dropped packet
	// that happened to carry a credit return would destroy those credits
	// and eventually wedge the peer's window.
	CreditSalvage NodeCounts
	// CreditRefund counts flow-control credits stranded by in-place drops,
	// per destination node. The host drains it into MPICH after a
	// NotifyCreditRefund doorbell: a dropped packet occupies no receiver
	// buffer, so its credit is returned directly at the sender. (The
	// paper's receiver-side estimate repair leaves credit stranded when a
	// dropped packet is the last traffic to its destination, which
	// deadlocks the sender's window.)
	CreditRefund NodeCounts
	// DropsByDst is the permanent per-destination count of packets this
	// NIC deliberately discarded (cancelled positives and suppressed
	// antis). Unlike the tables above it is never drained: it is the
	// sender-side ground truth the invariant checker reconciles against
	// the receiver's BIP sequence gaps — every permanent hole in a
	// destination's sequence space must be attributable to exactly these
	// drops.
	DropsByDst NodeCounts
}

// NodeCounts is a counter per node id, grown on first touch: only the
// cancel firmware writes these tables, so a NIC that never drops carries
// none, and the host drains them in ascending node order — the order the
// credit messages a drain can emit must leave in.
type NodeCounts []int64

// Add adds n to node's counter.
func (c *NodeCounts) Add(node int32, n int64) {
	*c = dense.Grow(*c, node, 0)
	(*c)[node] += n
}

// At returns node's counter.
func (c NodeCounts) At(node int32) int64 { return dense.At(c, node) }

// Sum returns the total over all nodes.
func (c NodeCounts) Sum() int64 {
	var sum int64
	for _, v := range c {
		sum += v
	}
	return sum
}

// Init sets w up in place, empty, with a drop buffer of dropCap entries per
// object.
func (w *SharedWindow) Init(dropCap int) {
	*w = SharedWindow{LatestGVT: -1, HostTMin: vtime.Infinity}
	w.Dropped.Init(dropCap)
}

// DefaultDropBufferCap sizes the per-object dropped-ID buffer. The paper
// allocates 10 entries per object; under bursty cancellation that fills,
// and a full ring makes the cancel firmware decline further drops for the
// object until an anti-message frees a slot (see DropBuffer). Capacity
// therefore trades modeled time, never correctness. The reproduction
// defaults to a size POLICE rarely fills and exposes the paper's value
// through the DropBufferCap configuration (see the drop-buffer ablation).
const DefaultDropBufferCap = 256

// PaperDropBufferCap is the buffer size the paper uses.
const PaperDropBufferCap = 10

// DropKey identifies a dropped message precisely. The paper records "the
// event-Id's of all dropped messages"; the reproduction keys on the full
// message identity because event IDs are reused across rollback
// incarnations — a re-executed object reassigns the same sequence numbers,
// and suppressing an anti-message for the wrong incarnation (same ID,
// different destination or content) would leave a live positive
// uncancelled and corrupt results.
type DropKey struct {
	ID      uint64
	Dst     int32
	SendTS  vtime.VTime
	RecvTS  vtime.VTime
	Payload uint64
}

// DropBuffer records the identities of positive messages cancelled in place
// on the NIC, per sending object. The NIC is its only consumer: it consults
// it to filter the anti-message of each dropped positive when the host sends
// it.
//
// Entries are one-shot: a successful Take removes the entry, since exactly
// one anti-message per dropped positive must be filtered.
//
// The buffer is bounded per object (10 in the paper) and cannot overflow:
// the firmware drops a positive in place only while Room reports a free
// slot for its sending object and forwards it otherwise, so every recorded
// drop is still there when its anti-message comes to take it. Recording
// into a full ring is a firmware bug and panics.
//
// Each object's entries, oldest first, live in a FIFO found by indexing a
// table with the object id, so recording, matching and consuming touch no
// hash table and, once the queue has grown to its working depth, allocate
// nothing. A deep capacity costs only what is used. The table holds
// pointers: object ids are sparse global ids, so it grows to the highest id
// that ever dropped, and an empty slot should cost a word, not a queue.
type DropBuffer struct {
	cap   int
	rings []*dense.FIFO[DropKey] // by sending object id; nil until the object's first drop
}

// Init sets b up in place, empty, with the given per-object capacity.
func (b *DropBuffer) Init(capPerObj int) {
	if capPerObj <= 0 {
		panic("nic: drop buffer capacity must be positive")
	}
	*b = DropBuffer{cap: capPerObj}
}

// ring returns obj's recorded drops, oldest first.
func (b *DropBuffer) ring(obj int32) []DropKey {
	if r := dense.At(b.rings, obj); r != nil {
		return r.Live()
	}
	return nil
}

// find returns the age rank of the oldest entry of live equal to key, or -1.
func find(live []DropKey, key DropKey) int {
	for i := range live {
		if live[i] == key {
			return i
		}
	}
	return -1
}

// Room returns the number of drops that can still be recorded for obj.
func (b *DropBuffer) Room(obj int32) int { return b.cap - b.Len(obj) }

// Record stores a dropped message identity for obj, which must have Room.
//
//nicwarp:hotpath runs for every positive the cancel firmware drops in place
func (b *DropBuffer) Record(obj int32, key DropKey) {
	b.rings = dense.Grow(b.rings, obj, nil)
	r := b.rings[obj]
	if r == nil {
		r = new(dense.FIFO[DropKey]) //nicwarp:alloc one queue per object that ever has a drop
		b.rings[obj] = r
	}
	if r.Len() == b.cap {
		panic(fmt.Sprintf("nic: drop recorded for object %d with no room (capacity %d)", obj, b.cap))
	}
	r.Push(key)
}

// Take consumes the entry (obj, key) and reports whether it was present.
// Drops and their anti-messages pair up in one FIFO stream, so the match is
// usually the oldest entry: the gap closes from the head side, which keeps
// the survivors in order and moves nothing in that common case.
//
//nicwarp:hotpath runs for every outgoing anti-message under early cancellation
func (b *DropBuffer) Take(obj int32, key DropKey) bool {
	live := b.ring(obj)
	i := find(live, key)
	if i < 0 {
		return false
	}
	copy(live[1:i+1], live[:i])
	b.rings[obj].Drop()
	return true
}

// Len returns the number of recorded IDs for obj.
func (b *DropBuffer) Len(obj int32) int { return len(b.ring(obj)) }

// TotalLen returns the number of recorded IDs across all objects.
func (b *DropBuffer) TotalLen() int {
	n := 0
	for _, r := range b.rings {
		if r != nil {
			n += r.Len()
		}
	}
	return n
}
