// Package antsearch is a Go implementation of the collaborative-search model
// of Feinerman, Korman, Lotker and Sereni, "Collaborative Search on the Plane
// without Communication" (PODC 2012): k identical, non-communicating,
// probabilistic agents start at the origin of the grid Z² and look for a
// treasure an adversary placed at an unknown node at distance D, trying to
// find it in time close to the optimal Θ(D + D²/k).
//
// The package is a thin facade over the internal implementation. It exposes
//
//   - the paper's algorithms (KnownK, RhoApprox, Uniform, Harmonic) plus the
//     natural extensions ApproxHedge and HarmonicRestart,
//   - the baselines the paper compares against conceptually (spiral search,
//     random walks, Lévy flights, a coordinated sector sweep, known-D),
//   - two simulation engines (analytic and exact/cell-level) and a
//     Monte-Carlo estimator of expected running times, and
//   - the reproduction experiments E1–E11 described in DESIGN.md.
//
// # Quick start
//
//	alg, err := antsearch.Uniform(0.5)          // no knowledge of k needed
//	if err != nil { ... }
//	res, err := antsearch.Search(alg, 16, antsearch.Point{X: 40, Y: -25},
//	    antsearch.WithSeed(7))
//	fmt.Println(res.Time, res.Finder)
//
// See examples/ for complete programs.
package antsearch

import (
	"context"
	"errors"

	"antsearch/internal/agent"
	"antsearch/internal/baseline"
	"antsearch/internal/core"
	"antsearch/internal/grid"
	"antsearch/internal/metrics"
	"antsearch/internal/scenario"
	"antsearch/internal/sim"
	"antsearch/internal/trace"
)

// Point is a node of the grid Z²; the source of every search is the origin.
type Point = grid.Point

// Algorithm is a search protocol executed by every agent. All algorithms in
// this package are safe for concurrent use by multiple simulations.
type Algorithm = agent.Algorithm

// Factory builds an algorithm for an instance with k agents; uniform
// algorithms ignore the argument. It is how experiments model "advice".
type Factory = agent.Factory

// Result is the outcome of a single simulated search.
type Result = sim.Result

// Estimate is the aggregate of a Monte-Carlo estimation of the expected
// search time.
type Estimate = sim.TrialStats

// Origin is the source node all agents start from.
var Origin = grid.Origin

// Dist returns the hop (L1) distance between two nodes.
func Dist(a, b Point) int { return grid.Dist(a, b) }

// --- The paper's algorithms -------------------------------------------------

// KnownK returns the non-uniform algorithm of Theorem 3.1: agents that know k
// (or are told the value k) search in expected time O(D + D²/k).
func KnownK(k int) (Algorithm, error) { return core.NewKnownK(k) }

// RhoApprox returns the algorithm of Corollary 3.2 for agents whose input ka
// is a rho-approximation of the true number of agents.
func RhoApprox(ka int, rho float64) (Algorithm, error) { return core.NewRhoApprox(ka, rho) }

// Uniform returns the uniform algorithm of Theorem 3.3 with hedging exponent
// 1+epsilon; agents need no information about k and the search is
// O(log^(1+epsilon) k)-competitive.
func Uniform(epsilon float64) (Algorithm, error) { return core.NewUniform(epsilon) }

// Harmonic returns the one-shot harmonic algorithm of Theorem 5.1 with tail
// parameter delta.
func Harmonic(delta float64) (Algorithm, error) { return core.NewHarmonic(delta) }

// HarmonicRestart returns the restarting variant of the harmonic algorithm
// (an extension beyond the paper): the harmonic sortie is repeated until the
// treasure is found.
func HarmonicRestart(delta float64) (Algorithm, error) { return core.NewHarmonicRestart(delta) }

// ApproxHedge returns the hedging algorithm for the Theorem 4.2 setting,
// where agents receive a one-sided k^epsilon-approximation kTilde of k.
func ApproxHedge(kTilde int, epsilon float64) (Algorithm, error) {
	return core.NewApproxHedge(kTilde, epsilon)
}

// DelayedStart wraps an algorithm so that each agent begins its search after
// an individual random delay drawn uniformly from {0, ..., maxDelay}. It is
// the asynchronous-start relaxation the paper sketches in Section 2 (agents
// leaving the nest one by one); every bound degrades by at most an additive
// maxDelay.
func DelayedStart(alg Algorithm, maxDelay int) (Algorithm, error) {
	return agent.NewDelayed(alg, maxDelay)
}

// DelayedStartFactory wraps a factory with DelayedStart.
func DelayedStartFactory(factory Factory, maxDelay int) (Factory, error) {
	return agent.DelayedFactory(factory, maxDelay)
}

// --- Baselines ---------------------------------------------------------------

// SingleSpiral returns the classical cow-path spiral search baseline.
func SingleSpiral() Algorithm { return baseline.SingleSpiral{} }

// RandomWalk returns the k-independent-random-walks baseline.
func RandomWalk() Algorithm { return baseline.RandomWalk{} }

// LevyFlight returns the Lévy-flight baseline with tail exponent mu in (1,3].
func LevyFlight(mu float64) (Algorithm, error) { return baseline.NewLevyFlight(mu) }

// SectorSweep returns the centrally coordinated sector-sweep baseline for k
// distinguishable agents.
func SectorSweep(k int) (Algorithm, error) { return baseline.NewSectorSweep(k) }

// KnownD returns the walk-out-and-sweep baseline for an agent that knows the
// treasure distance d.
func KnownD(d int) (Algorithm, error) { return baseline.NewKnownD(d) }

// --- Factories (advice models) ----------------------------------------------

// KnownKFactory models full knowledge of k: every instance's agents are told
// the exact number of agents.
func KnownKFactory() Factory { return core.Factory() }

// UniformFactory models the uniform setting: the algorithm never learns k.
func UniformFactory(epsilon float64) (Factory, error) { return core.UniformFactory(epsilon) }

// HarmonicRestartFactory models the uniform restarting harmonic algorithm.
func HarmonicRestartFactory(delta float64) (Factory, error) {
	return core.HarmonicRestartFactory(delta)
}

// RhoApproxFactory models Corollary 3.2: agents receive ka = bias·k, where
// bias must lie in [1/rho, rho].
func RhoApproxFactory(rho, bias float64) (Factory, error) { return core.RhoApproxFactory(rho, bias) }

// ApproxHedgeFactory models Theorem 4.2's advice: agents receive a one-sided
// k^epsilon-approximation of k.
func ApproxHedgeFactory(epsilon float64) (Factory, error) { return core.ApproxHedgeFactory(epsilon) }

// --- Single searches ---------------------------------------------------------

// Option configures Search and Estimate.
type Option func(*options)

type options struct {
	seed       uint64
	maxTime    int
	workers    int
	trials     int
	workersSet bool
	trialsSet  bool
}

func defaultOptions() options {
	return options{seed: 1, trials: 32}
}

// errEstimateOnlyOption is returned by Search and SearchWithTrace when given
// an option that only Monte-Carlo estimation can honour.
var errEstimateOnlyOption = errors.New(
	"antsearch: WithTrials and WithWorkers apply only to EstimateTime, not to a single Search")

// estimateOnly reports an error if a single-run call was handed
// estimation-only options.
func (o options) estimateOnly() error {
	if o.trialsSet || o.workersSet {
		return errEstimateOnlyOption
	}
	return nil
}

// WithSeed fixes the random seed (default 1); identical seeds reproduce
// identical results.
func WithSeed(seed uint64) Option { return func(o *options) { o.seed = seed } }

// WithMaxTime caps the simulated time of each run (default: a very large
// engine-level cap).
func WithMaxTime(steps int) Option { return func(o *options) { o.maxTime = steps } }

// WithWorkers bounds the number of goroutines used by Monte-Carlo estimation
// (default: GOMAXPROCS). It is only meaningful for EstimateTime; Search and
// SearchWithTrace simulate a single instance and reject it.
func WithWorkers(n int) Option {
	return func(o *options) { o.workers = n; o.workersSet = true }
}

// WithTrials sets the number of Monte-Carlo trials used by EstimateTime
// (default 32). It is only meaningful for EstimateTime; Search and
// SearchWithTrace simulate a single instance and reject it.
func WithTrials(n int) Option {
	return func(o *options) { o.trials = n; o.trialsSet = true }
}

// Search simulates k agents running alg until the first of them reaches the
// treasure (or the time cap is hit) and returns the outcome. It returns an
// error if given estimation-only options (WithTrials, WithWorkers).
func Search(alg Algorithm, k int, treasure Point, opts ...Option) (Result, error) {
	o := defaultOptions()
	for _, apply := range opts {
		apply(&o)
	}
	if err := o.estimateOnly(); err != nil {
		return Result{}, err
	}
	return sim.Run(sim.Instance{Algorithm: alg, NumAgents: k, Treasure: treasure},
		sim.Options{Seed: o.seed, MaxTime: o.maxTime})
}

// Trace is the visit record of an exact (cell-level) simulation.
type Trace struct {
	// Result is the search outcome.
	Result Result
	// Recorder holds per-cell visit counts and can render ASCII heat maps.
	Recorder *trace.Recorder
	// Coverage holds per-agent coverage and overlap statistics.
	Coverage *metrics.Coverage
}

// SearchWithTrace is Search on the exact engine, additionally recording every
// cell visit. It is slower than Search (it touches every cell individually)
// and intended for inspection, visualisation and overlap analysis.
func SearchWithTrace(alg Algorithm, k int, treasure Point, opts ...Option) (*Trace, error) {
	o := defaultOptions()
	for _, apply := range opts {
		apply(&o)
	}
	if err := o.estimateOnly(); err != nil {
		return nil, err
	}
	rec := trace.NewRecorder()
	cov := metrics.NewCoverage(k)
	res, err := sim.RunExact(sim.Instance{Algorithm: alg, NumAgents: k, Treasure: treasure},
		sim.Options{Seed: o.seed, MaxTime: o.maxTime},
		func(agentIdx, t int, p Point) {
			rec.Visit(agentIdx, t, p)
			cov.Visit(agentIdx, t, p)
		})
	if err != nil {
		return nil, err
	}
	return &Trace{Result: res, Recorder: rec, Coverage: cov}, nil
}

// RenderTrace renders the trace's visit heat map clipped to the given radius.
func (t *Trace) RenderTrace(radius int, treasure Point) string {
	return t.Recorder.Render(radius, treasure)
}

// --- Monte-Carlo estimation ---------------------------------------------------

// EstimateTime estimates the expected time for k agents built by factory to
// find a treasure placed uniformly at random at distance d, by running
// independent trials in parallel through the streaming sweep engine: trials
// are sharded over workers and added in trial order to one set of streaming
// accumulators, so memory stays bounded no matter how many trials run.
func EstimateTime(ctx context.Context, factory Factory, k, d int, opts ...Option) (Estimate, error) {
	o := defaultOptions()
	for _, apply := range opts {
		apply(&o)
	}
	return scenario.Runner{Workers: o.workers}.RunOne(ctx, scenario.Cell{
		Scenario: "estimate",
		Factory:  factory,
		K:        k,
		D:        d,
		Trials:   o.trials,
		MaxTime:  o.maxTime,
		Seed:     o.seed,
	})
}

// --- Scenario registry --------------------------------------------------------

// ScenarioParams parameterises the registered scenarios (see Scenarios).
type ScenarioParams = scenario.Params

// Scenarios returns the names of all registered scenarios: the paper's
// algorithms, the extensions and the baselines, each resolvable by
// ScenarioFactory and swept by cmd/antsweep.
func Scenarios() []string { return scenario.Names() }

// ScenarioFactory resolves a registered scenario into the advice-model
// factory EstimateTime consumes.
func ScenarioFactory(name string, p ScenarioParams) (Factory, error) {
	return scenario.Factory(name, p)
}

// ScenarioAlgorithm resolves a registered scenario into the algorithm a
// single Search with k agents executes.
func ScenarioAlgorithm(name string, p ScenarioParams, k int) (Algorithm, error) {
	return scenario.Algorithm(name, p, k)
}

// LowerBound returns the trivial lower bound D + D²/k on the expected search
// time (Section 2 of the paper).
func LowerBound(d, k int) float64 { return metrics.LowerBound(d, k) }

// Speedup returns T1/Tk.
func Speedup(t1, tk float64) float64 { return metrics.Speedup(t1, tk) }
