// Package statealias_ok must produce no statealias diagnostics: scalar
// value copies, freshly built snapshots, clone calls and annotated deep
// copies are all compliant.
package statealias_ok

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
	st scalarState
}

func (r *reuser) SaveState() interface{} { return r.SaveStateInto(nil) }

// Overwriting a reused scalar-only snapshot is the StateReuser idiom every
// in-repo model uses.
func (r *reuser) SaveStateInto(old interface{}) interface{} {
	snap, _ := old.(*scalarState)
	if snap == nil {
		snap = new(scalarState)
	}
	*snap = r.st
	return snap
}

type deepReuser struct {
	st refState
}

// A reused snapshot with reference state is refilled field by field.
func (d *deepReuser) SaveStateInto(old interface{}) interface{} {
	snap, _ := old.(*refState)
	if snap == nil {
		snap = new(refState)
	}
	snap.queue = append(snap.queue[:0], d.st.queue...)
	return snap
}
