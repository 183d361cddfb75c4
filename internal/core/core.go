// Package core implements the search algorithms that are the paper's primary
// contribution (Feinerman, Korman, Lotker, Sereni, "Collaborative Search on
// the Plane without Communication", PODC 2012):
//
//   - KnownK — the non-uniform algorithm of Theorem 3.1 (Algorithm 3 in the
//     appendix), which achieves the optimal expected time O(D + D²/k) when
//     the agents know k.
//   - RhoApprox — the constant-approximation variant of Corollary 3.2: each
//     agent runs KnownK with its own ρ-approximation of k, paying at most a
//     ρ² factor.
//   - Uniform — Algorithm 1 (Theorem 3.3), the uniform (k-oblivious) search
//     that is O(log^(1+ε) k)-competitive.
//   - Harmonic — Algorithm 2 (Theorem 5.1), the extremely simple one-shot
//     algorithm driven by the heavy-tailed distribution p(u) ∝ 1/d(u)^(2+δ).
//   - HarmonicRestart — a natural extension (not in the paper) that repeats
//     the harmonic sortie until the treasure is found, giving a uniform
//     algorithm with finite expected time for every k.
//
// All algorithms are expressed as agent.Algorithm values: identical agents,
// no communication, randomness only through the per-agent stream handed to
// NewSearcher. Advice about k (exact value, ρ-approximation, or nothing) is
// captured at construction time, matching the paper's model of "input given
// to every agent before the search starts".
package core

import (
	"math"

	"antsearch/internal/agent"
	"antsearch/internal/grid"
	"antsearch/internal/trajectory"
)

// maxSpiralSteps bounds the length of a single spiral search segment. The
// algorithms' schedules grow geometrically, so without a bound a simulation
// that is about to be cut off by its time cap could still ask for a segment
// whose length overflows int. The bound is far larger than any cap used by
// the experiments (2^40 ≈ 10^12 steps).
const maxSpiralSteps = 1 << 40

// maxBallRadius bounds the radius of the ball from which sortie targets are
// drawn, for the same reason.
const maxBallRadius = 1 << 30

// clampSteps truncates a (possibly huge) floating-point step count to the
// supported range.
func clampSteps(v float64) int {
	if v < 0 || math.IsNaN(v) {
		return 0
	}
	if v > maxSpiralSteps {
		return maxSpiralSteps
	}
	return int(v)
}

// clampRadius truncates a (possibly huge) floating-point radius to the
// supported range, never below zero.
func clampRadius(v float64) int {
	if v < 0 || math.IsNaN(v) {
		return 0
	}
	if v > maxBallRadius {
		return maxBallRadius
	}
	return int(v)
}

// sortie describes one "go somewhere, search locally, come home" excursion:
// the building block shared by all the paper's algorithms (basic procedures
// 1–4 of Section 2). spiralEnd is grid.SpiralOffset(spiralSteps), the
// spiral's end relative to the target: schedules with a fixed set of spiral
// lengths (Uniform) look it up in a table, the others compute it per sortie
// through newSortie.
type sortie struct {
	target      grid.Point
	spiralSteps int
	spiralEnd   grid.Point
}

// newSortie returns the sortie to target with a spiral of steps >= 0 steps,
// computing the spiral's end offset.
func newSortie(target grid.Point, steps int) sortie {
	return sortie{target: target, spiralSteps: steps, spiralEnd: grid.SpiralOffset(steps)}
}

// sortieSource produces the parameters of an algorithm's next sortie, or
// ok == false when the agent's schedule is over. Each algorithm implements it
// on its searcher struct, which also embeds a sortieEmitter; the pair costs a
// single allocation per searcher, which is what keeps the trial hot path
// within its allocation budget (a closure-based searcher costs one allocation
// per captured variable on top of the closure itself).
type sortieSource interface {
	nextSortie() (sortie, bool)
}

// sortieEmitter expands sorties into their trajectory segments (walk out,
// spiral, walk back) using fixed inline storage, so emitting segments never
// allocates.
type sortieEmitter struct {
	pending [3]trajectory.Seg
	head, n int
}

// nextFrom returns the next segment of the schedule, pulling a fresh sortie
// from src when the previous one is exhausted.
func (e *sortieEmitter) nextFrom(src sortieSource) (trajectory.Seg, bool) {
	for e.head >= e.n {
		so, ok := src.nextSortie()
		if !ok {
			return trajectory.Seg{}, false
		}
		e.expand(so)
	}
	seg := e.pending[e.head]
	e.head++
	return seg, true
}

// expand fills the emitter's inline storage with a sortie's segments.
func (e *sortieEmitter) expand(so sortie) {
	e.head, e.n = 0, len(appendSortie(e.pending[:0], so))
}

// appendSortie appends a sortie's explicit segments (walk out, spiral, walk
// back) to buf. Sorties whose target is the source itself skip the outbound
// walk, and spirals that end at the source skip the return walk, so engines
// never receive zero-duration walks; a degenerate sortie is a single
// zero-length spiral, never zero segments.
func appendSortie(buf []trajectory.Seg, so sortie) []trajectory.Seg {
	if so.target != grid.Origin {
		buf = append(buf, trajectory.WalkSeg(grid.Origin, so.target))
	}
	spiral := trajectory.SpiralSearchSegTo(so.target, so.spiralSteps, so.spiralEnd)
	buf = append(buf, spiral)
	if end := spiral.End(); end != grid.Origin {
		buf = append(buf, trajectory.WalkSeg(end, grid.Origin))
	}
	return buf
}

// emitFrom is the batch counterpart of nextFrom and the shared body of the
// algorithms' EmitSortie methods: it appends the next sortie's segments to
// buf, constructing them straight into the caller's buffer instead of
// staging them through the pending array. Segments still pending from a
// NextSegment-driven prefix are drained first, so the two pull styles stay
// coherent even if a caller mixes them mid-sortie.
func (e *sortieEmitter) emitFrom(src sortieSource, buf []trajectory.Seg) ([]trajectory.Seg, bool) {
	if e.head < e.n {
		buf = append(buf, e.pending[e.head:e.n]...)
		e.head = e.n
		return buf, true
	}
	so, ok := src.nextSortie()
	if !ok {
		return buf, false
	}
	return appendSortie(buf, so), true
}

// expandSortie converts a sortie into its explicit segments as a fresh slice.
// The engines never call it (they go through sortieEmitter's inline storage);
// it exists for tests and introspection.
func expandSortie(so sortie) []trajectory.Segment {
	var e sortieEmitter
	e.expand(so)
	segs := make([]trajectory.Segment, 0, e.n)
	for _, seg := range e.pending[:e.n] {
		segs = append(segs, seg)
	}
	return segs
}

// compile-time interface checks for the algorithm types defined in this
// package.
var (
	_ agent.Algorithm = (*KnownK)(nil)
	_ agent.Algorithm = (*RhoApprox)(nil)
	_ agent.Algorithm = (*Uniform)(nil)
	_ agent.Algorithm = (*Harmonic)(nil)
	_ agent.Algorithm = (*HarmonicRestart)(nil)
)

// Every searcher in this package supports batch emission: the analytic engine
// pulls whole sorties through EmitSortie and never pays a per-segment
// interface call for these algorithms.
var (
	_ agent.SortieEmitter = (*knownKSearcher)(nil)
	_ agent.SortieEmitter = (*uniformSearcher)(nil)
	_ agent.SortieEmitter = (*harmonicSearcher)(nil)
	_ agent.SortieEmitter = (*approxHedgeSearcher)(nil)
)
