package core

import (
	"fmt"
	"math"

	"antsearch/internal/agent"
	"antsearch/internal/trajectory"
	"antsearch/internal/xrand"
)

// KnownK is the non-uniform search algorithm of Theorem 3.1 (Algorithm 3 in
// the paper's appendix). Every agent knows k, the total number of agents, and
// repeats the following double loop forever:
//
//	for stage j = 1, 2, ...:
//	    for phase i = 1, ..., j:
//	        go to a node chosen uniformly at random in the ball B(2^i)
//	        perform a spiral search for t_i = 2^(2i+2)/k steps
//	        return to the source
//
// The expected running time is O(D + D²/k), which matches the trivial lower
// bound Ω(D + D²/k) and is therefore optimal.
type KnownK struct {
	k int
}

// NewKnownK returns the algorithm for agents that are told the number of
// agents is k. The value does not have to be the true number of agents: the
// experiment harness uses deliberately wrong values to study the cost of bad
// estimates (Corollary 3.2 and Theorem 4.2).
func NewKnownK(k int) (*KnownK, error) {
	if err := agent.Validate("k", k, 1); err != nil {
		return nil, fmt.Errorf("known-k: %w", err)
	}
	return &KnownK{k: k}, nil
}

// MustKnownK is NewKnownK for statically correct arguments; it panics on
// error and exists for tests and examples.
func MustKnownK(k int) *KnownK {
	a, err := NewKnownK(k)
	if err != nil {
		panic(err)
	}
	return a
}

// K returns the number of agents the algorithm was told.
func (a *KnownK) K() int { return a.k }

// Name implements agent.Algorithm.
func (a *KnownK) Name() string { return fmt.Sprintf("known-k(k=%d)", a.k) }

// knownKSearcher holds one agent's double-loop state (stage j, phase i; i is
// incremented before use).
type knownKSearcher struct {
	sortieEmitter
	rng  *xrand.Stream
	k    int
	j, i int
}

// nextSortie implements sortieSource.
func (s *knownKSearcher) nextSortie() (sortie, bool) {
	s.i++
	if s.i > s.j {
		s.j++
		s.i = 1
	}
	// Ldexp(1, e) is exactly 2^e, the same value math.Pow(2, e) returns, at a
	// fraction of the cost; this runs once per sortie on the hot path.
	radius := clampRadius(math.Ldexp(1, s.i))
	steps := clampSteps(math.Ldexp(1, 2*s.i+2) / float64(s.k))
	return newSortie(s.rng.UniformBallPoint(radius), steps), true
}

// NextSegment implements agent.Searcher.
func (s *knownKSearcher) NextSegment() (trajectory.Seg, bool) { return s.nextFrom(s) }

// EmitSortie implements agent.SortieEmitter.
func (s *knownKSearcher) EmitSortie(buf []trajectory.Seg) ([]trajectory.Seg, bool) {
	return s.emitFrom(s, buf)
}

// NewSearcher implements agent.Algorithm.
func (a *KnownK) NewSearcher(rng *xrand.Stream, _ int) agent.Searcher {
	return &knownKSearcher{rng: rng, k: a.k, j: 1}
}

// ReuseSearcher implements agent.SearcherReuser.
func (a *KnownK) ReuseSearcher(prev agent.Searcher, rng *xrand.Stream, _ int) agent.Searcher {
	return agent.ReuseOrNew(prev, knownKSearcher{rng: rng, k: a.k, j: 1})
}

// Factory returns an agent.Factory that, for an instance with k agents,
// builds KnownK with the exact value of k. This is the "full knowledge"
// setting of Theorem 3.1.
func Factory() agent.Factory {
	return func(k int) agent.Algorithm {
		if k < 1 {
			k = 1
		}
		return &KnownK{k: k}
	}
}

// RhoApprox is the algorithm of Corollary 3.2: agents only have a
// ρ-approximation k_a of the true number of agents (k/ρ <= k_a <= kρ) and run
// KnownK with the conservative estimate k_a/ρ, paying at most a ρ² factor in
// the running time.
type RhoApprox struct {
	inner *KnownK
	ka    int
	rho   float64
}

// NewRhoApprox returns the algorithm for agents whose input is the estimate
// ka, known to be a rho-approximation of the true number of agents.
func NewRhoApprox(ka int, rho float64) (*RhoApprox, error) {
	if err := agent.Validate("ka", ka, 1); err != nil {
		return nil, fmt.Errorf("rho-approx: %w", err)
	}
	if rho < 1 {
		return nil, fmt.Errorf("rho-approx: rho must be at least 1, got %v", rho)
	}
	assumed := int(float64(ka) / rho)
	if assumed < 1 {
		assumed = 1
	}
	inner, err := NewKnownK(assumed)
	if err != nil {
		return nil, fmt.Errorf("rho-approx: %w", err)
	}
	return &RhoApprox{inner: inner, ka: ka, rho: rho}, nil
}

// Name implements agent.Algorithm.
func (a *RhoApprox) Name() string {
	return fmt.Sprintf("rho-approx(ka=%d,rho=%.2g)", a.ka, a.rho)
}

// AssumedK returns the value of k the underlying KnownK schedule uses
// (ka/ρ, the conservative end of the approximation interval).
func (a *RhoApprox) AssumedK() int { return a.inner.K() }

// NewSearcher implements agent.Algorithm.
func (a *RhoApprox) NewSearcher(rng *xrand.Stream, agentIndex int) agent.Searcher {
	return a.inner.NewSearcher(rng, agentIndex)
}

// ReuseSearcher implements agent.SearcherReuser.
func (a *RhoApprox) ReuseSearcher(prev agent.Searcher, rng *xrand.Stream, agentIndex int) agent.Searcher {
	return a.inner.ReuseSearcher(prev, rng, agentIndex)
}

// RhoApproxFactory returns a Factory modelling the Corollary 3.2 setting: for
// an instance with k agents, every agent receives the same estimate
// ka = k·bias (clamped to at least 1), where bias must lie in [1/ρ, ρ], and
// runs RhoApprox with parameter ρ.
func RhoApproxFactory(rho, bias float64) (agent.Factory, error) {
	if rho < 1 {
		return nil, fmt.Errorf("rho-approx factory: rho must be at least 1, got %v", rho)
	}
	if bias < 1/rho-1e-9 || bias > rho+1e-9 {
		return nil, fmt.Errorf("rho-approx factory: bias %v outside [1/ρ, ρ] = [%v, %v]",
			bias, 1/rho, rho)
	}
	return func(k int) agent.Algorithm {
		ka := int(math.Round(float64(k) * bias))
		if ka < 1 {
			ka = 1
		}
		alg, err := NewRhoApprox(ka, rho)
		if err != nil {
			// Arguments were validated above; failure here is a programming
			// error rather than a user-input error.
			panic(err)
		}
		return alg
	}, nil
}
