// Package statealias_bad exercises the statealias rule: SaveState
// snapshots that shallow-copy reference fields or alias the live object.
package statealias_bad

import "nicwarp/internal/timewarp"

type buffers struct {
	queue []int
	index map[int]int
}

type lp struct {
	st buffers
}

// Shallow value copy of a state with reference fields.
func (l *lp) SaveState() interface{} {
	return l.st // want `shallow-copies reference state \(field queue\)`
}

type counter struct{ n int }

type holder struct {
	c counter
}

// Returning the address of a live field: snapshot IS the live state.
func (h *holder) SaveState() interface{} {
	return &h.c // want `pointer into live state`
}

type big struct {
	data [4][]byte
}

// Reference types nested inside arrays are still shared by a value copy.
func (b big) SaveState() interface{} {
	s := b
	return s // want `shallow-copies reference state`
}

type ring struct {
	slots []int
}

// A pointer-typed snapshot aliases by construction.
func (r *ring) SaveState() interface{} {
	p := &r.slots
	return p // want `pointer-typed snapshot`
}

type journal struct {
	entries []int
	n       int
}

type reuser struct {
	st    journal
	snaps timewarp.Snapshots[journal]
}

// A snapshot free list copies the state by value: the snapshot's entries
// slice shares the live backing array.
func (r *reuser) SaveState() interface{} {
	return r.snaps.Save(&r.st) // want `shallow-copies reference state \(field entries\)`
}

func (r *reuser) ReleaseState(v interface{}) { r.snaps.Release(v) }
