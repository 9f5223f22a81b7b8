// Package statealias_ok must produce no statealias diagnostics: scalar
// value copies, freshly built snapshots, clone calls, annotated deep copies
// and snapshot free lists over scalar or array state are all compliant.
package statealias_ok

import "nicwarp/internal/timewarp"

type scalarState struct {
	count uint64
	acc   uint64
	table [8]int64
}

type lp struct {
	st scalarState
}

// Value copy of a scalar-only state is exactly how snapshots should work.
func (l *lp) SaveState() interface{} { return l.st }

// Non-SaveState methods are outside the rule even when they alias.
func (l *lp) Peek() *scalarState { return &l.st }

type refState struct {
	queue []int
}

type deep struct {
	st refState
}

// A freshly built composite literal is assumed to deep-copy its inputs.
func (d *deep) SaveState() interface{} {
	q := make([]int, len(d.st.queue))
	copy(q, d.st.queue)
	return refState{queue: q}
}

func (s refState) clone() refState {
	q := make([]int, len(s.queue))
	copy(q, s.queue)
	return refState{queue: q}
}

type cloner struct {
	st refState
}

// A clone call is assumed to deep-copy.
func (c *cloner) SaveState() interface{} { return c.st.clone() }

type boxed struct {
	st scalarState
}

// &T{...} is a fresh allocation, not a pointer into live state.
func (b *boxed) SaveState() interface{} { return &scalarState{count: b.st.count} }

type annotated struct {
	st refState
}

// The queue is append-only and truncated by length on restore, so sharing
// the backing array is safe; the annotation records that argument.
func (a *annotated) SaveState() interface{} {
	//nicwarp:deepcopy queue is append-only; restore truncates by saved length
	return a.st
}

type reuser struct {
	st    scalarState
	snaps timewarp.Snapshots[scalarState]
}

// A scalar-only state copied through a snapshot free list is the
// StateReuser idiom every in-repo model uses.
func (r *reuser) SaveState() interface{}     { return r.snaps.Save(&r.st) }
func (r *reuser) ReleaseState(v interface{}) { r.snaps.Release(v) }

// slot is one entry of a fixed-size table, like the POLICE centre's
// open-incident table: the array is copied with the state.
type slot struct {
	id, replies uint32
	assigned    bool
}

type tabler struct {
	st    [4]slot
	snaps timewarp.Snapshots[[4]slot]
}

func (t *tabler) SaveState() interface{}     { return t.snaps.Save(&t.st) }
func (t *tabler) ReleaseState(v interface{}) { t.snaps.Release(v) }

type stateless struct{}

// An object with no state saves none.
func (stateless) SaveState() interface{} { return nil }
