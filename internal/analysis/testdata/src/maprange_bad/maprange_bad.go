// Package maprange_bad exercises the maprange rule: map iteration whose
// body is neither a pure key-collection nor annotated //nicwarp:ordered.
package maprange_bad

import "nicwarp/internal/timewarp"

func sum(m map[string]int) int {
	n := 0
	for _, v := range m { // want `iteration over map m has runtime-randomized order`
		n += v
	}
	return n
}

type table struct{ rows map[int]string }

// firstKey observably depends on visit order: the classic bug.
func (t table) firstKey() int {
	for k := range t.rows { // want `iteration over map t\.rows`
		return k
	}
	return -1
}

// keysAndCount mixes collection with another effect, so the collection-loop
// exemption must not apply.
func keysAndCount(m map[int]int) ([]int, int) {
	var keys []int
	n := 0
	for k := range m { // want `iteration over map m`
		keys = append(keys, k)
		n++
	}
	return keys, n
}

type bag map[string]int

// named map types are still maps underneath.
func drain(b bag) {
	for k := range b { // want `iteration over map b`
		delete(b, k)
	}
}

// "Pick any key" into a committed payload: map iteration order is
// per-process seeded.
func anyKey(m map[uint64]bool, e *timewarp.Event) {
	for k := range m { // want `iteration over map m`
		e.Payload = k
		break
	}
}

// lastKey's loop has no body, yet the key it leaves behind is whichever
// the walk visited last.
func lastKey(m map[int]bool) int {
	k := -1
	for k = range m { // want `iteration over map m`
	}
	return k
}

// joined has the shape of a self-append, but its call is not append: the
// string it builds follows visit order.
func joined(m map[string]bool) string {
	s := ""
	for k := range m { // want `iteration over map m`
		s = join(s, k)
	}
	return s
}

func join(a, b string) string { return a + "," + b }

// lastOnto appends to another slice each time, so only the last key
// visited survives.
func lastOnto(m map[int]bool, base []int) []int {
	var keys []int
	for k := range m { // want `iteration over map m`
		keys = append(base, k)
	}
	return keys
}
