// Package timewarp implements a WARPED-style optimistic parallel discrete
// event simulation kernel: logical processes hosting multiple simulation
// objects, timestamp-ordered optimistic execution, state saving on every
// event, rollback with aggressive cancellation, anti-message annihilation,
// and fossil collection below GVT.
//
// The kernel is deliberately free of any hardware-model or networking
// concern: it consumes and produces Events. The cluster layer
// (internal/core) converts outbound events to packets, charges host CPU
// costs for the work counts the kernel reports, and feeds inbound packets
// back in. This separation lets the kernel be verified exhaustively against
// a sequential oracle (see Sequential) independent of the hardware model.
package timewarp

import (
	"fmt"

	"nicwarp/internal/vtime"
)

// ObjectID identifies a simulation object globally (across all LPs).
type ObjectID int32

// Event is one Time Warp event message. Positive events carry application
// work; negative events (anti-messages) cancel a previously sent positive
// with the same ID.
//
// IDs are assigned deterministically from the sending object's rolled-back
// send counter, so a rolled-back re-execution that makes the same sends
// regenerates the same IDs. This gives the property the early-cancellation
// machinery relies on: an anti-message and the positive it cancels agree on
// ID no matter how execution interleaves, and the sequential oracle assigns
// identical IDs to committed events.
type Event struct {
	ID      uint64
	Src     ObjectID
	Dst     ObjectID
	SendTS  vtime.VTime
	RecvTS  vtime.VTime
	Payload uint64
	Sign    int8 // +1 positive, -1 anti; beside pos, so an event is 56 bytes

	// Kernel-internal queue plumbing. pos is the intrusive pendHeap slot
	// (-1 outside the heap). inext chains a pending event into its bucket
	// of the identity index, and a zombie into its object's zombie list.
	// An executed event in history heads the chain of the positives its
	// execution sent, and each output copy links the next: neither is
	// pending. Both fields are overwritten on insertion, so events copied
	// or recycled with stale values are safe, and neither participates in
	// identity (sameIdentity) or the wire encoding.
	pos   int32
	inext *Event //nicwarp:owns intrusive index, output chain or zombie list; unlinked by pendIndex.del, overwritten on insert
}

// MakeEventID composes the deterministic event ID from the sending object
// and its per-object send sequence number.
func MakeEventID(src ObjectID, seq uint64) uint64 {
	return uint64(uint32(src))<<32 | (seq & 0xFFFFFFFF)
}

// Anti returns the anti-message for a positive event.
func (e *Event) Anti() *Event {
	if e.Sign != 1 {
		panic("timewarp: Anti of a non-positive event")
	}
	a := *e
	a.Sign = -1
	return &a
}

// Compare imposes the total order used everywhere: by receive timestamp,
// then destination, send timestamp, source, and ID. The same comparator
// drives the optimistic scheduler, straggler detection and the sequential
// oracle, which is what makes their committed histories comparable.
func (e *Event) Compare(f *Event) int {
	switch {
	case e.RecvTS != f.RecvTS:
		return cmpV(e.RecvTS, f.RecvTS)
	case e.Dst != f.Dst:
		return cmpI(int64(e.Dst), int64(f.Dst))
	case e.SendTS != f.SendTS:
		return cmpV(e.SendTS, f.SendTS)
	case e.Src != f.Src:
		return cmpI(int64(e.Src), int64(f.Src))
	default:
		return cmpU(e.ID, f.ID)
	}
}

// Before reports whether e precedes f in the total order.
func (e *Event) Before(f *Event) bool { return e.Compare(f) < 0 }

// String renders a compact diagnostic form.
func (e *Event) String() string {
	sign := "+"
	if e.Sign < 0 {
		sign = "-"
	}
	return fmt.Sprintf("%sev[id=%d %d->%d st=%v rt=%v]", sign, e.ID, e.Src, e.Dst, e.SendTS, e.RecvTS)
}

func cmpV(a, b vtime.VTime) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func cmpI(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func cmpU(a, b uint64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}
