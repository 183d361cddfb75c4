// Package baseline implements the comparison strategies the paper discusses
// around its main results:
//
//   - SingleSpiral — the classical cow-path/spiral search of Baeza-Yates et
//     al.: one (or each) agent spirals outward from the source forever. It
//     finds the treasure in Θ(D²) and gains nothing from extra agents, which
//     is the "no speed-up" reference point.
//   - KnownD — the observation of Section 2 that an agent that knows D can
//     find the treasure in O(D) by walking to distance D and sweeping the
//     ring of radius D.
//   - RandomWalk — k independent simple random walks. On the infinite grid
//     their expected hitting time is infinite even for nearby treasures
//     (Section 1, Related Work), which experiment E7 demonstrates through
//     time-outs.
//   - LevyFlight — Lévy flights with power-law step lengths (Reynolds), the
//     biology literature's favourite non-communicating search heuristic.
//   - SectorSweep — a centrally-coordinated, non-identical-agent sweep in the
//     spirit of López-Ortiz and Sweet: agent i deterministically sweeps the
//     i-th angular sector of every ring. It shows what explicit coordination
//     buys over identical probabilistic agents.
//
// All baselines implement agent.Algorithm so the same engines and experiment
// harness run them unchanged.
package baseline

import (
	"fmt"
	"math"
	"sync"

	"antsearch/internal/agent"
	"antsearch/internal/grid"
	"antsearch/internal/trajectory"
	"antsearch/internal/xrand"
)

// spiralChunk is the number of spiral steps emitted per segment by
// SingleSpiral. Chunking exists only so the engine can interleave its cap
// checks; the value has no effect on results.
const spiralChunk = 1 << 16

// SingleSpiral is the spiral search of the cow-path problem: every agent
// spirals outward from the source forever. With one agent this is the optimal
// deterministic strategy when nothing is known about D (time Θ(D²)); with k
// agents it gains no speed-up because all agents trace the same path.
type SingleSpiral struct{}

var _ agent.Algorithm = SingleSpiral{}

// Name implements agent.Algorithm.
func (SingleSpiral) Name() string { return "single-spiral" }

// singleSpiralSearcher emits the source-centred spiral in fixed-size chunks.
type singleSpiralSearcher struct {
	next int
}

// NextSegment implements agent.Searcher.
func (s *singleSpiralSearcher) NextSegment() (trajectory.Seg, bool) {
	seg := trajectory.SpiralSeg(grid.Origin, s.next, s.next+spiralChunk)
	s.next += spiralChunk
	return seg, true
}

// EmitSortie implements agent.SortieEmitter. One chunk per call: a chunk
// already covers 2^16 steps, so there is nothing to gain from prefetching
// more (each unscanned chunk would cost a spiral-end square root for
// nothing).
func (s *singleSpiralSearcher) EmitSortie(buf []trajectory.Seg) ([]trajectory.Seg, bool) {
	seg, _ := s.NextSegment()
	return append(buf, seg), true
}

// NewSearcher implements agent.Algorithm.
func (SingleSpiral) NewSearcher(*xrand.Stream, int) agent.Searcher {
	return &singleSpiralSearcher{}
}

// ReuseSearcher implements agent.SearcherReuser.
func (SingleSpiral) ReuseSearcher(prev agent.Searcher, _ *xrand.Stream, _ int) agent.Searcher {
	return agent.ReuseOrNew(prev, singleSpiralSearcher{})
}

// SingleSpiralFactory returns a Factory for SingleSpiral (it ignores k).
func SingleSpiralFactory() agent.Factory {
	return func(int) agent.Algorithm { return SingleSpiral{} }
}

// KnownD is the "distance known in advance" reference of Section 2: the agent
// walks straight to distance D in a random direction and then sweeps the ring
// of radius D, finding any treasure at distance exactly D within O(D) steps.
// It is not a general search algorithm (it misses treasures at any other
// distance); the experiments use it only as the O(D) yardstick.
type KnownD struct {
	d int
}

// NewKnownD returns the baseline for treasures known to be at distance d.
func NewKnownD(d int) (*KnownD, error) {
	if err := agent.Validate("d", d, 1); err != nil {
		return nil, fmt.Errorf("known-d: %w", err)
	}
	return &KnownD{d: d}, nil
}

var _ agent.Algorithm = (*KnownD)(nil)

// Name implements agent.Algorithm.
func (a *KnownD) Name() string { return fmt.Sprintf("known-d(D=%d)", a.d) }

// knownDSearcher walks to a random point of ring d and sweeps the ring once.
type knownDSearcher struct {
	d, ringSize, startIdx int
	emitted               int // number of ring-arc segments emitted so far
	pos                   grid.Point
	started               bool
}

// NextSegment implements agent.Searcher.
func (s *knownDSearcher) NextSegment() (trajectory.Seg, bool) {
	if !s.started {
		s.started = true
		target := grid.RingPoint(s.d, s.startIdx)
		s.pos = target
		return trajectory.WalkSeg(grid.Origin, target), true
	}
	if s.emitted >= s.ringSize {
		return trajectory.Seg{}, false
	}
	nextIdx := (s.startIdx + s.emitted + 1) % s.ringSize
	next := grid.RingPoint(s.d, nextIdx)
	seg := trajectory.WalkSeg(s.pos, next)
	s.pos = next
	s.emitted++
	return seg, true
}

// knownDBatch is the number of ring-arc segments EmitSortie appends per call.
const knownDBatch = 64

// EmitSortie implements agent.SortieEmitter: the walk out as its own batch,
// then the ring sweep in runs of knownDBatch arcs.
func (s *knownDSearcher) EmitSortie(buf []trajectory.Seg) ([]trajectory.Seg, bool) {
	if !s.started {
		seg, _ := s.NextSegment()
		return append(buf, seg), true
	}
	if s.emitted >= s.ringSize {
		return buf, false
	}
	for i := 0; i < knownDBatch && s.emitted < s.ringSize; i++ {
		seg, _ := s.NextSegment()
		buf = append(buf, seg)
	}
	return buf, true
}

// NewSearcher implements agent.Algorithm.
func (a *KnownD) NewSearcher(rng *xrand.Stream, _ int) agent.Searcher {
	ringSize := grid.RingSize(a.d)
	return &knownDSearcher{d: a.d, ringSize: ringSize, startIdx: rng.IntN(ringSize)}
}

// ReuseSearcher implements agent.SearcherReuser. It consumes the same random
// draw NewSearcher does.
func (a *KnownD) ReuseSearcher(prev agent.Searcher, rng *xrand.Stream, _ int) agent.Searcher {
	ringSize := grid.RingSize(a.d)
	return agent.ReuseOrNew(prev, knownDSearcher{d: a.d, ringSize: ringSize, startIdx: rng.IntN(ringSize)})
}

// KnownDFactory returns a Factory for KnownD; it ignores k (the baseline's
// advantage is knowing D, not k).
func KnownDFactory(d int) (agent.Factory, error) {
	alg, err := NewKnownD(d)
	if err != nil {
		return nil, err
	}
	return func(int) agent.Algorithm { return alg }, nil
}

// RandomWalk is k independent simple random walks on the grid. The expected
// hitting time of any fixed node is infinite on the infinite two-dimensional
// grid, so experiments cap it and report time-outs; it exists to demonstrate
// why the memoryless strategy that works so well on expanders fails here.
type RandomWalk struct{}

var _ agent.Algorithm = RandomWalk{}

// Name implements agent.Algorithm.
func (RandomWalk) Name() string { return "random-walk" }

// randomWalkSearcher emits one uniformly random unit step per segment.
type randomWalkSearcher struct {
	rng *xrand.Stream
	pos grid.Point
}

// NextSegment implements agent.Searcher.
func (s *randomWalkSearcher) NextSegment() (trajectory.Seg, bool) {
	next := s.pos.Step(s.rng.Direction())
	seg := trajectory.WalkSeg(s.pos, next)
	s.pos = next
	return seg, true
}

// randomWalkBatch is the number of unit steps EmitSortie appends per call.
// Prefetched steps the engine never scans consume extra direction draws, but
// per-agent streams are reseeded every trial, so the surplus is unobservable.
const randomWalkBatch = 32

// EmitSortie implements agent.SortieEmitter.
func (s *randomWalkSearcher) EmitSortie(buf []trajectory.Seg) ([]trajectory.Seg, bool) {
	for i := 0; i < randomWalkBatch; i++ {
		next := s.pos.Step(s.rng.Direction())
		buf = append(buf, trajectory.WalkSeg(s.pos, next))
		s.pos = next
	}
	return buf, true
}

// NewSearcher implements agent.Algorithm.
func (RandomWalk) NewSearcher(rng *xrand.Stream, _ int) agent.Searcher {
	return &randomWalkSearcher{rng: rng}
}

// ReuseSearcher implements agent.SearcherReuser.
func (RandomWalk) ReuseSearcher(prev agent.Searcher, rng *xrand.Stream, _ int) agent.Searcher {
	return agent.ReuseOrNew(prev, randomWalkSearcher{rng: rng})
}

// RandomWalkFactory returns a Factory for RandomWalk (it ignores k).
func RandomWalkFactory() agent.Factory {
	return func(int) agent.Algorithm { return RandomWalk{} }
}

// LevyFlight performs Lévy flights: repeatedly choose a uniformly random
// heading and a flight length drawn from a power law P(ℓ) ∝ ℓ^-mu, then walk
// in (the grid discretisation of) that direction for ℓ steps. Reynolds
// argues such flights, with mu close to 1, are favoured by cooperatively
// foraging insects because straight legs reduce overlap between searchers.
type LevyFlight struct {
	mu float64
	// plOnce guards pl, the flight-length sampler for δ = mu-1, built on the
	// first searcher so that an algorithm that never searches never pays
	// for its table.
	plOnce sync.Once
	pl     *xrand.PowerLaw
}

// NewLevyFlight returns the Lévy flight baseline with tail exponent mu,
// which must lie in (1, 3].
func NewLevyFlight(mu float64) (*LevyFlight, error) {
	if mu <= 1 || mu > 3 {
		return nil, fmt.Errorf("levy-flight: mu must be in (1, 3], got %v", mu)
	}
	return &LevyFlight{mu: mu}, nil
}

var _ agent.Algorithm = (*LevyFlight)(nil)

// Mu returns the tail exponent.
func (a *LevyFlight) Mu() float64 { return a.mu }

// Name implements agent.Algorithm.
func (a *LevyFlight) Name() string { return fmt.Sprintf("levy-flight(mu=%.2g)", a.mu) }

// powerLaw returns the shared flight-length sampler, building it on first
// use.
func (a *LevyFlight) powerLaw() *xrand.PowerLaw {
	a.plOnce.Do(func() { a.pl = xrand.NewPowerLaw(a.mu - 1) })
	return a.pl
}

// levyFlightSearcher emits one power-law-length straight leg per segment.
type levyFlightSearcher struct {
	rng *xrand.Stream
	pl  *xrand.PowerLaw
	pos grid.Point
}

// NextSegment implements agent.Searcher.
func (s *levyFlightSearcher) NextSegment() (trajectory.Seg, bool) {
	length := s.pl.Radius(s.rng)
	theta := 2 * math.Pi * s.rng.Float64()
	dx := int(math.Round(float64(length) * math.Cos(theta)))
	dy := int(math.Round(float64(length) * math.Sin(theta)))
	if dx == 0 && dy == 0 {
		dx = 1
	}
	next := s.pos.Add(grid.Point{X: dx, Y: dy})
	seg := trajectory.WalkSeg(s.pos, next)
	s.pos = next
	return seg, true
}

// levyBatch is the number of flight legs EmitSortie appends per call. As with
// the random walk, over-drawn randomness for unscanned legs is invisible
// because streams are reseeded per trial.
const levyBatch = 8

// EmitSortie implements agent.SortieEmitter.
func (s *levyFlightSearcher) EmitSortie(buf []trajectory.Seg) ([]trajectory.Seg, bool) {
	for i := 0; i < levyBatch; i++ {
		seg, _ := s.NextSegment()
		buf = append(buf, seg)
	}
	return buf, true
}

// NewSearcher implements agent.Algorithm.
func (a *LevyFlight) NewSearcher(rng *xrand.Stream, _ int) agent.Searcher {
	return &levyFlightSearcher{rng: rng, pl: a.powerLaw()}
}

// ReuseSearcher implements agent.SearcherReuser.
func (a *LevyFlight) ReuseSearcher(prev agent.Searcher, rng *xrand.Stream, _ int) agent.Searcher {
	return agent.ReuseOrNew(prev, levyFlightSearcher{rng: rng, pl: a.powerLaw()})
}

// LevyFlightFactory returns a Factory for LevyFlight (it ignores k).
func LevyFlightFactory(mu float64) (agent.Factory, error) {
	alg, err := NewLevyFlight(mu)
	if err != nil {
		return nil, err
	}
	return func(int) agent.Algorithm { return alg }, nil
}
