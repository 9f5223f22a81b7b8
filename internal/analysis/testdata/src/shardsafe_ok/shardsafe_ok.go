// Package shardsafe_ok exercises the shardsafe rule's non-flagging half:
// instance state, immutable-shaped package values, and reviewed
// //nicwarp:sharded exceptions.
package shardsafe_ok

import "errors"

// Immutable-shaped package values are fine without annotation.
var (
	ErrFull     = errors.New("queue full")
	defaultName = "shard"
	maxDepth    = 64
)

// A reviewed lookup table: written only at init, shared read-only.
//
//nicwarp:sharded init-only name table, never written after package init
var modeNames = map[int]string{0: "aggressive", 1: "lazy"}

// shard holds its own state; nothing package-level.
type shard struct {
	queue []int
	seen  map[int]bool
}

func (s *shard) push(v int) {
	s.queue = append(s.queue, v)
	s.seen[v] = true
}

func lookup(mode int) string {
	return modeNames[mode]
}

//nicwarp:sharded process-wide run counter, read only by the progress meter
var runs int

// An annotated write to an annotated counter.
func bump() {
	runs++ //nicwarp:sharded progress accounting, not simulation state
}

// init runs once, before any shard exists, so its writes are not shared
// mutation.
func init() {
	maxDepth = 32
}
