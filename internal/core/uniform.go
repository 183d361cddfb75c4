package core

import (
	"fmt"
	"math"
	"sync"

	"antsearch/internal/agent"
	"antsearch/internal/grid"
	"antsearch/internal/trajectory"
	"antsearch/internal/xrand"
)

// Uniform is Algorithm 1 of the paper (Theorem 3.3): a uniform search
// algorithm — the agents receive no information whatsoever about k — that is
// O(log^(1+ε) k)-competitive for every fixed ε > 0.
//
// Every agent runs the following triple loop forever:
//
//	for big-stage ℓ = 0, 1, 2, ...:
//	    for stage i = 0, ..., ℓ:
//	        for phase j = 0, ..., i:
//	            D_{i,j} = sqrt(2^(i+j) / j^(1+ε))
//	            go to a node chosen uniformly at random in B(D_{i,j})
//	            perform a spiral search for t_{i,j} = 2^(i+2) / j^(1+ε) steps
//	            return to the source
//
// Intuitively, phase j of stage i is tuned for the case where the number of
// agents is about 2^j and the treasure is at distance about D_{i,j}; because
// the agent does not know which case it is in, it hedges over all of them and
// pays a polylogarithmic overhead.
//
// The paper writes j^(1+ε) with j starting at 0; as is standard, the j = 0
// term is interpreted with max(j, 1), which changes no asymptotic statement.
//
// D_{i,j} and t_{i,j} depend only on (i, j, ε), so the sortie shapes of the
// first uniformTableStages stages are computed once per Uniform, on its first
// searcher, and shared read-only by all its searchers.
type Uniform struct {
	epsilon float64
	// tableOnce guards table, built lazily so that a Uniform that never
	// makes a searcher — a sweep grid expanded only to look its cells up in
	// a cache — never pays for it.
	tableOnce sync.Once
	table     *uniformTable
}

// uniformTableStages is the number of stages i the precomputed schedule
// covers. A search capped at the default 2^34 steps never gets past it;
// later stages compute their sorties on the fly with the same function.
const uniformTableStages = 32

// uniformTable holds the sortie shape of every (i, j) with
// j <= i < uniformTableStages, row-major: (i, j) sits at i(i+1)/2 + j.
type uniformTable [uniformTableStages * (uniformTableStages + 1) / 2]uniformShape

// uniformShape is the deterministic part of one uniform sortie: the radius
// D_{i,j} of the ball the target is drawn from, that ball's node count, the
// spiral length t_{i,j} and the spiral's end offset.
type uniformShape struct {
	radius, ballSize, steps int
	spiralEnd               grid.Point
}

// uniformShapeAt is the one home of Algorithm 1's formulas:
// D_{i,j} = sqrt(2^(i+j) / j^(1+ε)) and t_{i,j} = 2^(i+2) / j^(1+ε), with
// j read as max(j, 1).
func uniformShapeAt(i, j int, epsilon float64) uniformShape {
	denom := math.Pow(math.Max(float64(j), 1), 1+epsilon)
	// Ldexp(1, e) is exactly 2^e, the same value math.Pow(2, e) returns.
	radius := clampRadius(math.Sqrt(math.Ldexp(1, i+j) / denom))
	steps := clampSteps(math.Ldexp(1, i+2) / denom)
	return uniformShape{
		radius:    radius,
		ballSize:  grid.BallSize(radius),
		steps:     steps,
		spiralEnd: grid.SpiralOffset(steps),
	}
}

// schedule returns the algorithm's precomputed sortie table, building it on
// first use.
func (a *Uniform) schedule() *uniformTable {
	a.tableOnce.Do(func() {
		t := new(uniformTable)
		for i := 0; i < uniformTableStages; i++ {
			for j := 0; j <= i; j++ {
				t[i*(i+1)/2+j] = uniformShapeAt(i, j, a.epsilon)
			}
		}
		a.table = t
	})
	return a.table
}

// NewUniform returns the uniform algorithm with hedging exponent 1+epsilon.
// Theorem 3.3 requires epsilon > 0; Theorem 4.1 shows why epsilon = 0 is
// unattainable.
func NewUniform(epsilon float64) (*Uniform, error) {
	if epsilon <= 0 {
		return nil, fmt.Errorf("uniform: epsilon must be positive, got %v", epsilon)
	}
	return &Uniform{epsilon: epsilon}, nil
}

// MustUniform is NewUniform for statically correct arguments; it panics on
// error.
func MustUniform(epsilon float64) *Uniform {
	a, err := NewUniform(epsilon)
	if err != nil {
		panic(err)
	}
	return a
}

// Epsilon returns the algorithm's hedging parameter.
func (a *Uniform) Epsilon() float64 { return a.epsilon }

// Name implements agent.Algorithm.
func (a *Uniform) Name() string { return fmt.Sprintf("uniform(eps=%.2g)", a.epsilon) }

// uniformSearcher holds one agent's triple-loop state: big-stage ell >= 0,
// stage i in [0, ell], phase j in [0, i]. j is incremented before use,
// starting from -1 so that the first sortie is (ell=0, i=0, j=0).
type uniformSearcher struct {
	sortieEmitter
	rng       *xrand.Stream
	table     *uniformTable
	epsilon   float64
	ell, i, j int
}

// nextSortie implements sortieSource.
func (s *uniformSearcher) nextSortie() (sortie, bool) {
	s.j++
	if s.j > s.i {
		s.i++
		s.j = 0
		if s.i > s.ell {
			s.ell++
			s.i = 0
		}
	}
	var sh uniformShape
	if s.i < uniformTableStages {
		sh = s.table[s.i*(s.i+1)/2+s.j]
	} else {
		sh = uniformShapeAt(s.i, s.j, s.epsilon)
	}
	// The same draw as rng.UniformBallPoint(sh.radius), with the ball size
	// read from the table.
	return sortie{
		target:      grid.BallPoint(sh.radius, s.rng.IntN(sh.ballSize)),
		spiralSteps: sh.steps,
		spiralEnd:   sh.spiralEnd,
	}, true
}

// NextSegment implements agent.Searcher.
func (s *uniformSearcher) NextSegment() (trajectory.Seg, bool) { return s.nextFrom(s) }

// EmitSortie implements agent.SortieEmitter.
func (s *uniformSearcher) EmitSortie(buf []trajectory.Seg) ([]trajectory.Seg, bool) {
	return s.emitFrom(s, buf)
}

// NewSearcher implements agent.Algorithm.
func (a *Uniform) NewSearcher(rng *xrand.Stream, _ int) agent.Searcher {
	return &uniformSearcher{rng: rng, table: a.schedule(), epsilon: a.epsilon, j: -1}
}

// ReuseSearcher implements agent.SearcherReuser.
func (a *Uniform) ReuseSearcher(prev agent.Searcher, rng *xrand.Stream, _ int) agent.Searcher {
	return agent.ReuseOrNew(prev, uniformSearcher{rng: rng, table: a.schedule(), epsilon: a.epsilon, j: -1})
}

// UniformFactory returns a Factory for the uniform algorithm: the returned
// factory ignores k entirely, which is exactly what "uniform" means.
func UniformFactory(epsilon float64) (agent.Factory, error) {
	alg, err := NewUniform(epsilon)
	if err != nil {
		return nil, err
	}
	return func(int) agent.Algorithm { return alg }, nil
}
