// Package rng provides a small, fast, deterministic pseudo-random number
// generator used by every stochastic component of the reproduction.
//
// Determinism is load-bearing here: the Time Warp kernel is verified against
// a sequential oracle, which requires that an application model produce the
// *same* random draws regardless of execution order. To that end each
// simulation object owns its own Source seeded from the experiment seed and
// the object's identity, and the Source state is part of the object state
// saved and restored on rollback.
//
// The generator is xorshift64* (Vigna, 2016 variant of Marsaglia's
// xorshift), chosen because its entire state is a single uint64 — trivially
// cheap to checkpoint on every event, which matters when state saving runs
// once per processed event as in WARPED's default configuration.
package rng

import "math"

// Source is a deterministic xorshift64* generator. The zero value is not a
// valid source; use New. Source is a value type on purpose: copying it
// checkpoints it, which is exactly how Time Warp state saving uses it.
type Source struct {
	state uint64
}

// New returns a Source seeded from seed. A zero seed is remapped to a fixed
// nonzero constant because xorshift has an all-zero fixed point.
func New(seed uint64) Source {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15 // golden-ratio constant
	}
	// Scramble the seed with splitmix64 so that consecutive seeds (object
	// IDs) yield uncorrelated streams.
	z := seed + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return Source{state: z}
}

// NewFor derives a stream for a component identified by two integers (for
// example experiment seed and object ID) such that distinct components get
// decorrelated streams.
func NewFor(seed uint64, component uint64) Source {
	return New(seed*0x100000001B3 + component + 1)
}

// Uint64 returns the next 64 pseudo-random bits.
//
//nicwarp:hotpath every model random draw funnels through this xorshift step
func (s *Source) Uint64() uint64 {
	x := s.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	s.state = x
	return x * 0x2545F4914F6CDD1D
}

// Intn returns a uniform integer in [0, n). Panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with nonpositive n")
	}
	return int(s.Uint64() % uint64(n))
}

// Int63n returns a uniform int64 in [0, n). Panics if n <= 0.
func (s *Source) Int63n(n int64) int64 {
	if n <= 0 {
		panic("rng: Int63n with nonpositive n")
	}
	return int64(s.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Exp returns an exponentially distributed value with the given mean.
// Panics if mean is not positive.
func (s *Source) Exp(mean float64) float64 {
	if mean <= 0 {
		panic("rng: Exp with nonpositive mean")
	}
	u := s.Float64()
	// Guard against log(0).
	if u <= 0 {
		u = math.SmallestNonzeroFloat64
	}
	return -mean * math.Log(1-u)
}

// ExpInt64 returns an exponentially distributed integer with the given mean,
// always at least 1 so it can be used directly as a timestamp increment.
func (s *Source) ExpInt64(mean float64) int64 {
	v := int64(s.Exp(mean))
	if v < 1 {
		v = 1
	}
	return v
}

// UniformInt64 returns a uniform int64 in [lo, hi]. Panics if hi < lo.
func (s *Source) UniformInt64(lo, hi int64) int64 {
	if hi < lo {
		panic("rng: UniformInt64 with hi < lo")
	}
	return lo + s.Int63n(hi-lo+1)
}

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool {
	return s.Float64() < p
}

// State returns the raw generator state, used in state digests.
func (s *Source) State() uint64 { return s.state }
