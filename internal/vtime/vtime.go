// Package vtime defines the two notions of time used throughout the
// repository.
//
// The reproduction runs a simulation of a simulator, so two clocks coexist:
//
//   - VTime is the virtual time of the *application* simulation — the
//     timestamps carried by Time Warp events (what the paper calls LVT and
//     GVT values). It is a dimensionless logical clock.
//
//   - ModelTime is the clock of the *hardware model* — the substitute for the
//     paper's Pentium-III/Myrinet cluster. It measures modeled wall-clock
//     nanoseconds accumulated on CPUs, buses, NIC processors and wires. The
//     "Simulation Time (sec)" axes in the paper's figures correspond to
//     ModelTime in this reproduction.
//
// Keeping the two as distinct types prevents an entire class of bugs where a
// Time Warp timestamp is accidentally used to schedule hardware work or vice
// versa.
package vtime

import (
	"fmt"
	"math"
	"time"
)

// VTime is a Time Warp virtual timestamp. It is a logical clock with no
// physical unit; events are processed in nondecreasing VTime order.
type VTime int64

// Infinity is the largest representable virtual time. It is used for "no
// pending events" (an idle LP reports LVT = Infinity) and as the identity of
// the min operator in GVT reductions.
const Infinity VTime = math.MaxInt64

// IsInf reports whether t is the infinite timestamp.
func (t VTime) IsInf() bool { return t == Infinity }

// MinV returns the smaller of two virtual times.
func MinV(a, b VTime) VTime {
	if a < b {
		return a
	}
	return b
}

// AddSat returns a+b, saturating at Infinity. It is the checked form of
// VTime addition: Infinity is a legal operand (idle LPs report LVT =
// Infinity; it is the identity of GVT min-reductions), and plain `a + b`
// wraps negative the moment it flows in, dragging min-reductions — and
// with them GVT — backwards. AddSat treats any result at or beyond
// Infinity as Infinity. Underflow (both operands hugely negative) cannot
// occur with this repo's nonnegative timestamps and panics loudly rather
// than wrapping.
//
//nicwarp:hotpath timestamp arithmetic on every event send
func AddSat(a, b VTime) VTime {
	if a.IsInf() || b.IsInf() {
		return Infinity
	}
	s := a + b //nicwarp:finite overflow of the raw sum is checked on the next lines
	if b > 0 && s < a {
		return Infinity
	}
	if b < 0 && s > a {
		panic("vtime: AddSat underflow")
	}
	return s
}

// Advance returns timestamp t advanced by the nonnegative delay d,
// saturating at Infinity. It is the checked helper for the universal
// Time Warp operation "schedule at now + delay"; a negative delay is a
// causality violation and panics.
//
//nicwarp:hotpath clock advance on every executed event
func Advance(t, d VTime) VTime {
	if d < 0 {
		panic("vtime: Advance with negative delay")
	}
	return AddSat(t, d)
}

// String renders the timestamp, using "inf" for Infinity.
func (t VTime) String() string {
	if t.IsInf() {
		return "inf"
	}
	return fmt.Sprintf("%d", int64(t))
}

// ModelTime is a hardware-model wall-clock instant or duration, in
// nanoseconds. The model clock starts at 0 when an experiment begins.
type ModelTime int64

// Convenient ModelTime duration units.
const (
	Nanosecond  ModelTime = 1
	Microsecond ModelTime = 1000 * Nanosecond
	Millisecond ModelTime = 1000 * Microsecond
	Second      ModelTime = 1000 * Millisecond
)

// ModelInfinity is the largest representable model time; it is used as a
// run-until limit meaning "run to completion".
const ModelInfinity ModelTime = math.MaxInt64

// Seconds converts a model duration to floating-point seconds, for reporting.
func (m ModelTime) Seconds() float64 { return float64(m) / float64(Second) }

// Duration converts a model duration to a time.Duration for pretty printing.
// Saturates at the maximum time.Duration.
func (m ModelTime) Duration() time.Duration {
	return time.Duration(m)
}

// String renders the model time as a humane duration.
func (m ModelTime) String() string {
	if m == ModelInfinity {
		return "inf"
	}
	return m.Duration().String()
}

// MinM returns the smaller of two model times.
func MinM(a, b ModelTime) ModelTime {
	if a < b {
		return a
	}
	return b
}

// MaxM returns the larger of two model times.
func MaxM(a, b ModelTime) ModelTime {
	if a > b {
		return a
	}
	return b
}

// TransferTime returns the time needed to move size bytes over a resource
// with the given bandwidth in bytes per second. Bandwidth must be positive.
// The result is rounded up to a whole nanosecond so that nonempty transfers
// always take nonzero model time.
func TransferTime(size int, bytesPerSecond float64) ModelTime {
	if size <= 0 {
		return 0
	}
	if bytesPerSecond <= 0 {
		panic("vtime: TransferTime with nonpositive bandwidth")
	}
	ns := float64(size) / bytesPerSecond * 1e9
	t := ModelTime(math.Ceil(ns)) //nicwarp:alloc standard-library arithmetic; opaque to the analyzer
	if t < 1 {
		t = 1
	}
	return t
}

// TransferMemo remembers what TransferTime returned for the first few
// distinct sizes one component moves. A link, port or bus sees a handful of
// encoded sizes in a run and pays TransferTime's divide and Ceil on every
// packet; the memo answers a repeat from four inline pairs and falls through
// to TransferTime otherwise, so every result is TransferTime's own bits. It
// lives by value inside its component — no allocation, nothing shared
// between shards — and the zero value is ready. A change of bandwidth
// empties it.
type TransferMemo struct {
	bw   float64
	n    int32
	size [4]int32
	t    [4]ModelTime
}

// Time returns TransferTime(size, bytesPerSecond).
//
//nicwarp:hotpath four to five lookups per wire packet
func (m *TransferMemo) Time(size int, bytesPerSecond float64) ModelTime {
	if m.bw != bytesPerSecond {
		*m = TransferMemo{bw: bytesPerSecond}
	}
	for i := range m.size[:m.n] {
		if int(m.size[i]) == size {
			return m.t[i]
		}
	}
	t := TransferTime(size, bytesPerSecond)
	if int(m.n) < len(m.size) && size == int(int32(size)) {
		m.size[m.n], m.t[m.n] = int32(size), t
		m.n++
	}
	return t
}

// Cycles returns the model time consumed by n cycles of a processor running
// at the given clock frequency in Hz. Used to charge NIC firmware costs in
// LanAI-style cycle counts.
func Cycles(n int64, hz float64) ModelTime {
	if n <= 0 {
		return 0
	}
	if hz <= 0 {
		panic("vtime: Cycles with nonpositive frequency")
	}
	ns := float64(n) / hz * 1e9
	t := ModelTime(math.Ceil(ns))
	if t < 1 {
		t = 1
	}
	return t
}
