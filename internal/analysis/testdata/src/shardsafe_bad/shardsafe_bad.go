// Package shardsafe_bad exercises the shardsafe rule's flagging half:
// package-level mutable state and shared writes.
package shardsafe_bad

// Mutable-through-type package vars.
var (
	registry = map[string]int{} // want `package-level var registry is mutable through its type \(map\)`
	backlog  []int              // want `package-level var backlog is mutable through its type \(slice\)`
	events   chan int           // want `package-level var events is mutable through its type \(channel\)`
	current  *counters          // want `package-level var current is mutable through its type \(pointer\)`
	stats    counters           // want `package-level var stats is mutable through its type \(struct holding a slice\)`
	lanes    [4][]int           // want `package-level var lanes is mutable through its type \(array of slice\)`
)

type counters struct {
	samples []int64
}

var total int

// Writes to package vars outside init are flagged regardless of type.
func record(v int64) {
	total++                                  // want `write to package-level var total from record`
	stats.samples = append(stats.samples, v) // want `write to package-level var stats from record`
}

func reset() {
	total = 0 // want `write to package-level var total from reset`
}

// Indexed writes resolve to the root variable.
func register(name string, id int) {
	registry[name] = id // want `write to package-level var registry from register`
}

var slots [8]int

// Writes through a slice of a package-level array land in the array.
func bump(i int) {
	slots[2:][i] = 1 // want `write to package-level var slots from bump`
	slots[2:][i]++   // want `write to package-level var slots from bump`
}
