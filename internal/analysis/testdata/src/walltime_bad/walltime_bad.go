// Package walltime_bad exercises every walltime rule: banned imports,
// wall-clock time functions and clock-derived integers in a package outside
// the driver allowlist.
package walltime_bad

import (
	"crypto/rand"     // want `import of crypto/rand in deterministic package walltime_bad`
	mrand "math/rand" // want `import of math/rand in deterministic package walltime_bad`
	"time"

	"nicwarp/internal/timewarp"
)

func stamp() int64 {
	t := time.Now()              // want `wall-clock access time\.Now in deterministic package`
	time.Sleep(time.Millisecond) // want `wall-clock access time\.Sleep`
	d := time.Since(t)           // want `wall-clock access time\.Since`
	return int64(d) + mrand.Int63()
}

func entropy() byte {
	var b [1]byte
	rand.Read(b[:])
	return b[0]
}

func timer() {
	<-time.After(time.Second) // want `wall-clock access time\.After`
}

// Process-seeded randomness into a committed payload: rejected at the
// source, the math/rand import above.
func randomPayload(e *timewarp.Event) {
	e.Payload = uint64(mrand.Int63())
}

// A *rand.Rand method is still math/rand, however it was constructed: the
// type cannot be named without the import.
func viaRand(r *mrand.Rand, e *timewarp.Event) {
	e.Payload = r.Uint64()
}

// Laundering the clock through locals does not help: the read is flagged
// where it happens.
func launder(e *timewarp.Event) {
	seed := time.Now().UnixNano() // want `wall-clock access time\.Now`
	jitter := seed / 2
	e.Payload = uint64(jitter)
}

// A time.Time handed in by an allowlisted driver still must not become an
// integer here.
func handedIn(t time.Time, e *timewarp.Event) {
	e.Payload = uint64(t.UnixNano()) // want `integer extracted from the wall clock \(time\.Time\.UnixNano\)`
}
