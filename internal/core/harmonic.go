package core

import (
	"fmt"
	"math"

	"antsearch/internal/agent"
	"antsearch/internal/trajectory"
	"antsearch/internal/xrand"
)

// Harmonic is Algorithm 2 of the paper (Theorem 5.1): the "harmonic search
// algorithm", an extremely simple one-shot strategy proposed as a plausible
// model for real insect searchers. Every agent performs exactly three
// actions and then stops:
//
//  1. go to a node u chosen with probability p(u) = c/d(u)^(2+δ),
//  2. perform a spiral search for t(u) = d(u)^(2+δ) steps,
//  3. return to the source.
//
// Theorem 5.1: for δ ∈ (0, 0.8] and any ε > 0 there is α such that if
// k > α·D^δ then with probability at least 1−ε the treasure is found and the
// running time is O(D + D^(2+δ)/k).
//
// Because a single sortie can miss the treasure, the algorithm has no finite
// expected-time guarantee; the experiment harness therefore reports success
// probability and time-given-success separately for it.
type Harmonic struct {
	delta float64
}

// NewHarmonic returns the harmonic algorithm with tail parameter delta.
// Theorem 5.1 is stated for delta in (0, 0.8]; the constructor accepts any
// delta in (0, 2) so that the ablation experiment can explore the regime
// where the theorem's hypotheses fail.
func NewHarmonic(delta float64) (*Harmonic, error) {
	if delta <= 0 || delta >= 2 {
		return nil, fmt.Errorf("harmonic: delta must be in (0, 2), got %v", delta)
	}
	return &Harmonic{delta: delta}, nil
}

// MustHarmonic is NewHarmonic for statically correct arguments; it panics on
// error.
func MustHarmonic(delta float64) *Harmonic {
	a, err := NewHarmonic(delta)
	if err != nil {
		panic(err)
	}
	return a
}

// Delta returns the algorithm's tail parameter.
func (a *Harmonic) Delta() float64 { return a.delta }

// Name implements agent.Algorithm.
func (a *Harmonic) Name() string { return fmt.Sprintf("harmonic(delta=%.2g)", a.delta) }

// harmonicSearcher draws harmonic sorties: exactly one for the one-shot
// algorithm of Theorem 5.1, forever for the restarting extension.
type harmonicSearcher struct {
	sortieEmitter
	rng     *xrand.Stream
	delta   float64
	restart bool
	done    bool
}

// nextSortie implements sortieSource.
func (s *harmonicSearcher) nextSortie() (sortie, bool) {
	if s.done {
		return sortie{}, false
	}
	if !s.restart {
		s.done = true
	}
	h := Harmonic{delta: s.delta}
	return h.sortie(s.rng), true
}

// NextSegment implements agent.Searcher.
func (s *harmonicSearcher) NextSegment() (trajectory.Seg, bool) { return s.nextFrom(s) }

// EmitSortie implements agent.SortieEmitter.
func (s *harmonicSearcher) EmitSortie(buf []trajectory.Seg) ([]trajectory.Seg, bool) {
	return s.emitFrom(s, buf)
}

// NewSearcher implements agent.Algorithm.
func (a *Harmonic) NewSearcher(rng *xrand.Stream, _ int) agent.Searcher {
	return &harmonicSearcher{rng: rng, delta: a.delta}
}

// ReuseSearcher implements agent.SearcherReuser.
func (a *Harmonic) ReuseSearcher(prev agent.Searcher, rng *xrand.Stream, _ int) agent.Searcher {
	return agent.ReuseOrNew(prev, harmonicSearcher{rng: rng, delta: a.delta})
}

// sortie draws one harmonic sortie: a target u with p(u) ∝ 1/d(u)^(2+δ) and a
// spiral budget of d(u)^(2+δ) steps.
func (a *Harmonic) sortie(rng *xrand.Stream) sortie {
	u := rng.HarmonicPoint(a.delta)
	d := float64(u.L1())
	return newSortie(u, clampSteps(math.Pow(d, 2+a.delta)))
}

// HarmonicFactory returns a Factory for the (uniform) harmonic algorithm; it
// ignores k.
func HarmonicFactory(delta float64) (agent.Factory, error) {
	alg, err := NewHarmonic(delta)
	if err != nil {
		return nil, err
	}
	return func(int) agent.Algorithm { return alg }, nil
}

// HarmonicRestart repeats the harmonic sortie forever instead of stopping
// after one attempt. This simple extension is not analysed in the paper but
// turns the harmonic strategy into a uniform algorithm with finite expected
// running time for every k and D: each round independently succeeds with the
// probability bounded in Theorem 5.1, so the expected number of rounds is
// constant once k > αD^δ. The ablation experiment (E10) compares it with the
// one-shot variant.
type HarmonicRestart struct {
	delta float64
}

// NewHarmonicRestart returns the restarting harmonic algorithm with tail
// parameter delta.
func NewHarmonicRestart(delta float64) (*HarmonicRestart, error) {
	if delta <= 0 || delta >= 2 {
		return nil, fmt.Errorf("harmonic-restart: delta must be in (0, 2), got %v", delta)
	}
	return &HarmonicRestart{delta: delta}, nil
}

// Delta returns the algorithm's tail parameter.
func (a *HarmonicRestart) Delta() float64 { return a.delta }

// Name implements agent.Algorithm.
func (a *HarmonicRestart) Name() string {
	return fmt.Sprintf("harmonic-restart(delta=%.2g)", a.delta)
}

// NewSearcher implements agent.Algorithm.
func (a *HarmonicRestart) NewSearcher(rng *xrand.Stream, _ int) agent.Searcher {
	return &harmonicSearcher{rng: rng, delta: a.delta, restart: true}
}

// ReuseSearcher implements agent.SearcherReuser.
func (a *HarmonicRestart) ReuseSearcher(prev agent.Searcher, rng *xrand.Stream, _ int) agent.Searcher {
	return agent.ReuseOrNew(prev, harmonicSearcher{rng: rng, delta: a.delta, restart: true})
}

// HarmonicRestartFactory returns a Factory for the restarting harmonic
// algorithm; it ignores k.
func HarmonicRestartFactory(delta float64) (agent.Factory, error) {
	alg, err := NewHarmonicRestart(delta)
	if err != nil {
		return nil, err
	}
	return func(int) agent.Algorithm { return alg }, nil
}
