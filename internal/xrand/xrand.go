// Package xrand provides the deterministic randomness substrate for the
// search simulations: reproducible per-trial and per-agent random streams and
// the samplers the paper's algorithms need (uniform nodes of a ball, random
// directions, and the heavy-tailed "harmonic" distribution
// p(u) ∝ 1/d(u)^(2+δ) of Section 5).
//
// Reproducibility is central to the experiment harness: every stream is
// derived from an experiment seed plus a path of indices (trial, agent, ...)
// via SplitMix64, so results do not depend on scheduling, on the number of
// worker goroutines, or on the order in which trials run.
//
// Stream is a value type holding the PCG generator state inline, so the
// simulation engines can keep one stream per agent slot in flat storage and
// Reset it between trials instead of allocating a new generator per trial —
// the trial hot path performs no RNG allocations at all. The outputs are
// bit-identical to the previous *rand.Rand-backed implementation: the
// generator is the standard library's PCG (embedded by value) and the derived
// samplers replicate math/rand/v2's algorithms exactly, pinned by
// TestStreamMatchesStdlib.
package xrand

import (
	"math"
	"math/bits"

	// xrand is the one engine package allowed to touch the stdlib RNG: the
	// PCG generator and the sampler algorithms here replicate math/rand/v2
	// bit for bit from explicit seeds only (pinned by TestStreamMatchesStdlib);
	// no ambient (globally seeded) state is ever consulted.
	"math/rand/v2" //antlint:allow detrand deterministic parity shims over explicitly seeded PCG
)

// splitMix64 advances the SplitMix64 generator state and returns the next
// 64-bit output. It is used only for seed derivation, not as the simulation
// generator itself.
func splitMix64(state uint64) uint64 {
	state += 0x9e3779b97f4a7c15
	z := state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// DeriveSeed combines a base seed with a path of stream indices into a new
// seed. Distinct paths yield statistically independent seeds, and the mapping
// is deterministic.
func DeriveSeed(base uint64, path ...uint64) uint64 {
	s := splitMix64(base ^ 0x6a09e667f3bcc908)
	for _, p := range path {
		s = splitMix64(s ^ splitMix64(p^0xbb67ae8584caa73b))
	}
	return s
}

// Stream is a deterministic pseudo-random stream: the standard library's PCG
// generator held by value, plus the domain-specific samplers used by the
// search algorithms. The zero value is a valid (zero-seeded) stream; use
// NewStream or Reset to seed it. Streams must not be copied after first use
// (copies would replay the same values); engines embed them in per-agent
// state and pass pointers around.
type Stream struct {
	pcg rand.PCG
}

// NewStream returns a stream seeded from the base seed and the given path of
// indices (for example trial index then agent index).
func NewStream(base uint64, path ...uint64) *Stream {
	s := &Stream{}
	s.Reset(base, path...)
	return s
}

// Reset reseeds the stream in place from the base seed and path, exactly as
// NewStream would, without allocating. The simulation engines call it between
// trials to reuse one stream per agent slot across a whole shard.
func (s *Stream) Reset(base uint64, path ...uint64) {
	seed := DeriveSeed(base, path...)
	s.pcg.Seed(seed, splitMix64(seed))
}

// Uint64 returns a uniformly distributed 64-bit value.
//
//antlint:hotpath
func (s *Stream) Uint64() uint64 { return s.pcg.Uint64() }

// uint64n returns a uniform value in [0, n) for n > 0, replicating
// math/rand/v2's nearly-divisionless reduction (Lemire) so the consumed
// generator values — and therefore every downstream sample — match the
// previous rand.Rand-backed implementation bit for bit.
//
//antlint:hotpath
func (s *Stream) uint64n(n uint64) uint64 {
	if n&(n-1) == 0 { // n is a power of two; mask
		return s.pcg.Uint64() & (n - 1)
	}
	hi, lo := bits.Mul64(s.pcg.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(s.pcg.Uint64(), n)
		}
	}
	return hi
}

// IntN returns a uniform integer in [0, n). It panics if n <= 0, matching
// math/rand/v2 semantics.
//
//antlint:hotpath
func (s *Stream) IntN(n int) int {
	if n <= 0 {
		panic("xrand: invalid argument to IntN")
	}
	return int(s.uint64n(uint64(n)))
}

// Int64N returns a uniform int64 in [0, n).
//
//antlint:hotpath
func (s *Stream) Int64N(n int64) int64 {
	if n <= 0 {
		panic("xrand: invalid argument to Int64N")
	}
	return int64(s.uint64n(uint64(n)))
}

// Float64 returns a uniform value in [0, 1).
//
//antlint:hotpath
func (s *Stream) Float64() float64 {
	// There are exactly 1<<53 float64s in [0,1); math/rand/v2's construction.
	return float64(s.pcg.Uint64()<<11>>11) / (1 << 53)
}

// Bernoulli returns true with probability p (clamped to [0, 1]).
//
//antlint:hotpath
func (s *Stream) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

// PermInto fills p with a pseudo-random permutation of [0, len(p)) without
// allocating, consuming exactly the random values Perm would (identity fill
// followed by a Fisher–Yates shuffle, as in math/rand/v2).
//
//antlint:hotpath
func (s *Stream) PermInto(p []int) {
	for i := range p {
		p[i] = i
	}
	for i := len(p) - 1; i > 0; i-- {
		j := int(s.uint64n(uint64(i + 1)))
		p[i], p[j] = p[j], p[i]
	}
}

// Perm returns a pseudo-random permutation of [0, n). It is a convenience
// wrapper over PermInto; per-trial call sites should reuse a buffer with
// PermInto instead.
func (s *Stream) Perm(n int) []int {
	p := make([]int, n)
	s.PermInto(p)
	return p
}

// source adapts a Stream to math/rand/v2's Source interface for the cold-path
// samplers below that delegate to the standard library's ziggurat tables.
type source struct{ s *Stream }

// Uint64 implements rand.Source.
func (src source) Uint64() uint64 { return src.s.pcg.Uint64() }

// ExpFloat64 returns an exponentially distributed value with rate 1. It
// delegates to the standard library's ziggurat sampler over this stream's
// generator (bit-identical to the previous implementation); the small
// per-call allocation makes it unsuitable for the trial hot path, which does
// not use it.
func (s *Stream) ExpFloat64() float64 { return rand.New(source{s}).ExpFloat64() }

// NormFloat64 returns a standard normal value. Like ExpFloat64 it delegates
// to the standard library's ziggurat sampler and is not a hot-path method.
func (s *Stream) NormFloat64() float64 { return rand.New(source{s}).NormFloat64() }

// PowerLawRadius samples an integer radius r >= 1 with probability
// proportional to r^-(1+delta), for delta > 0. The support is unbounded; the
// sampler uses exact rejection from the continuous Pareto envelope
// floor(U^(-1/delta)) and therefore needs no truncation. This is the radial
// component of the harmonic distribution of Section 5 (the node is then
// uniform on the L1 ring of radius r, giving p(u) ∝ 1/d(u)^(2+delta)).
//
// PowerLawRadius is the one-off form: it derives the sampler's constants on
// every call. Code that draws many radii for one delta builds a PowerLaw once
// and draws from it, which returns the same radii from the same stream.
func (s *Stream) PowerLawRadius(delta float64) int {
	p := powerLawConstants(delta)
	return p.Radius(s)
}

// powerLawTableSize is the number of radii PowerLaw tables. The proposal
// exceeds it with probability (N+1)^-δ: for the Lévy flights of E7 (δ = 1,
// nearly all draws of the quick suite) one proposal in a thousand, for the
// harmonic searchers of E6, E7 and E10 (δ in [0.1, 0.8]) about 4%.
// Those fall back to math.Pow on the same arguments. The two tables take
// 16 KiB per sampler.
const powerLawTableSize = 1024

// PowerLaw draws the radii of PowerLawRadius(delta) for one fixed delta with
// the per-draw constants hoisted and the powers of small radii tabled: a
// draw from a PowerLaw consumes the same stream values and returns the same
// radius as PowerLawRadius(delta) (pinned by
// TestPowerLawMatchesPowerLawRadius), at a fraction of the math.Pow calls.
// A PowerLaw is read-only after NewPowerLaw and safe for concurrent use.
type PowerLaw struct {
	delta       float64
	negInvDelta float64 // -1/δ, the envelope exponent
	negTarget   float64 // -(1+δ), the target exponent
	m           float64 // 2^(1+δ)/δ, the rejection constant
	// mass[r] = r^-δ for 1 <= r <= len(target), so the proposal mass of r
	// is mass[r] - mass[r+1]; target[r] = r^-(1+δ). Index 0 is unused. The
	// one-off form leaves both nil and computes every power.
	mass, target []float64
}

// NewPowerLaw returns the tabled sampler for delta > 0. Building it costs
// about two thousand math.Pow calls, so callers build one per delta and
// share it (see core.Harmonic and baseline.LevyFlight).
func NewPowerLaw(delta float64) *PowerLaw {
	p := powerLawConstants(delta)
	p.mass = make([]float64, powerLawTableSize+2)
	p.target = make([]float64, powerLawTableSize+1)
	for r := 1; r <= powerLawTableSize+1; r++ {
		p.mass[r] = math.Pow(float64(r), -delta)
	}
	for r := 1; r <= powerLawTableSize; r++ {
		p.target[r] = math.Pow(float64(r), p.negTarget)
	}
	return &p
}

// powerLawConstants returns the untabled sampler for delta.
func powerLawConstants(delta float64) PowerLaw {
	if delta <= 0 {
		panic("xrand: PowerLawRadius requires delta > 0")
	}
	// Proposal q(r) = P(floor(X) = r) = r^-delta - (r+1)^-delta where
	// X = U^(-1/delta) is continuous Pareto(delta) on [1, ∞). The target is
	// pi(r) ∝ r^-(1+delta) and pi(r) <= M·q(r) with M = 2^(1+delta)/delta.
	return PowerLaw{
		delta:       delta,
		negInvDelta: -1 / delta,
		negTarget:   -(1 + delta),
		m:           math.Pow(2, 1+delta) / delta,
	}
}

// Delta returns the sampler's tail exponent.
func (p *PowerLaw) Delta() float64 { return p.delta }

// Radius draws one radius from s.
//
//antlint:hotpath
func (p *PowerLaw) Radius(s *Stream) int {
	for {
		u := s.Float64()
		if u == 0 {
			continue
		}
		x := math.Pow(u, p.negInvDelta)
		if x >= float64(math.MaxInt64/4) {
			// Astronomically rare; resample rather than overflow.
			continue
		}
		r := int(x)
		if r < 1 {
			r = 1
		}
		var q, target float64
		if r < len(p.target) {
			q = p.mass[r] - p.mass[r+1]
			target = p.target[r]
		} else {
			q = math.Pow(float64(r), -p.delta) - math.Pow(float64(r+1), -p.delta)
			target = math.Pow(float64(r), p.negTarget)
		}
		if q <= 0 {
			continue
		}
		if s.Float64()*p.m*q < target {
			return r
		}
	}
}

// GeometricTrials returns the number of independent Bernoulli(p) trials up to
// and including the first success (support {1, 2, ...}). It panics if p is
// not in (0, 1].
func (s *Stream) GeometricTrials(p float64) int {
	if p <= 0 || p > 1 {
		panic("xrand: GeometricTrials requires p in (0, 1]")
	}
	if p == 1 {
		return 1
	}
	u := s.Float64()
	for u == 0 {
		u = s.Float64()
	}
	return 1 + int(math.Floor(math.Log(u)/math.Log(1-p)))
}

// Zeta returns the Riemann zeta function ζ(x) for x > 1, computed by direct
// summation with an integral tail correction. The experiments use it to
// compute the normalising constant of the harmonic distribution,
// c = 1/(4·ζ(1+δ)).
func Zeta(x float64) float64 {
	if x <= 1 {
		return math.Inf(1)
	}
	const terms = 1 << 14
	sum := 0.0
	for n := 1; n <= terms; n++ {
		sum += math.Pow(float64(n), -x)
	}
	// Euler–Maclaurin tail: ∫_{terms}^∞ t^-x dt + ½·terms^-x.
	t := float64(terms)
	sum += math.Pow(t, 1-x)/(x-1) + 0.5*math.Pow(t, -x)
	return sum
}
