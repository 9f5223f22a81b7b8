// Package walltime_driver sits under the nicwarp/cmd/... clock allowlist:
// reading the clock for progress timing is legal here, but a driver is
// where a run gets its seed, so ambient randomness and integers extracted
// from the clock are flagged even in allowlisted packages.
package walltime_driver

import (
	mrand "math/rand" // want `import of math/rand`
	"time"
)

// elapsed is the progress-timing idiom cmd/experiments, cmd/stress and
// cmd/bench use: a Duration never becomes a seed by accident.
func elapsed(work func()) (float64, int64) {
	start := time.Now()
	work()
	d := time.Since(start)
	return d.Seconds(), d.Nanoseconds()
}

// clockSeed is the bug: every run gets a different seed.
func clockSeed() uint64 {
	return uint64(time.Now().UnixNano()) // want `integer extracted from the wall clock \(time\.Time\.UnixNano\)`
}

func stamp(t time.Time) (int64, int64, int) {
	return t.Unix(), t.UnixMilli(), t.Nanosecond() // want `time\.Time\.Unix\)` `time\.Time\.UnixMilli\)` `time\.Time\.Nanosecond\)`
}

func randomSeed() uint64 { return mrand.Uint64() }
