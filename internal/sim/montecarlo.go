package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"

	"antsearch/internal/adversary"
	"antsearch/internal/agent"
	"antsearch/internal/fault"
	"antsearch/internal/parallel"
	"antsearch/internal/stats"
	"antsearch/internal/xrand"
)

// TrialConfig describes a Monte-Carlo estimation of the expected running time
// of an algorithm on instances with a fixed number of agents and a fixed
// treasure-placement strategy.
type TrialConfig struct {
	// Factory supplies the algorithm; it receives the true number of agents
	// and decides (by construction) how much of that information reaches the
	// agents.
	Factory agent.Factory
	// NumAgents is the true number of agents k.
	NumAgents int
	// Adversary places the treasure for every trial.
	Adversary adversary.Strategy
	// Trials is the number of independent simulations.
	Trials int
	// Seed is the base seed; each trial derives its own streams from it.
	Seed uint64
	// MaxTime caps each trial (0 = DefaultMaxTime).
	MaxTime int
	// Workers bounds the number of goroutines used (0 = GOMAXPROCS).
	Workers int
	// Faults, when non-nil and non-zero, applies the fault model to every
	// trial (see fault.Plan). Schedules derive from (seed, trial, agent)
	// alone, so faulty trials shard and merge as deterministically as
	// fault-free ones.
	Faults *fault.Plan
	// Progress, when non-nil, is called after each merged shard (throttled by
	// ProgressEvery) with the running aggregate — from the goroutine that
	// serializes merges, so callbacks for one run never race. A nil hook
	// costs the hot path nothing.
	Progress func(Progress)
	// ProgressEvery throttles Progress to every N merged shards (the final
	// shard always reports). Zero fires on every shard; negative selects an
	// automatic ~1% stride for mega-cells.
	ProgressEvery int
	// Checkpointer, when non-nil, makes the run resumable: the running prefix
	// aggregate is persisted every CheckpointEvery shards, and on start the
	// longest valid persisted prefix seeds the fold so only the remaining
	// shards are computed. Resumed runs finish with aggregates bit-identical
	// to uninterrupted ones (the fold adds trials in trial order, so the
	// prefix state is a pure function of the trial prefix). Save failures
	// never fail the run.
	Checkpointer Checkpointer
	// CheckpointEvery is the shard interval between persisted checkpoints
	// (0 = DefaultCheckpointEvery; meaningful only with a Checkpointer).
	CheckpointEvery int
}

// Validate reports whether the configuration is usable.
func (c TrialConfig) Validate() error {
	if c.Factory == nil {
		return errors.New("sim: trial config has no algorithm factory")
	}
	if c.NumAgents < 1 {
		return fmt.Errorf("sim: trial config needs at least one agent, got %d", c.NumAgents)
	}
	if c.Adversary == nil {
		return errors.New("sim: trial config has no adversary")
	}
	if d := c.Adversary.Distance(); d < 1 {
		return fmt.Errorf("sim: adversary %q places the treasure at distance %d, "+
			"on the source; the competitive ratio is undefined for D=0 (need D >= 1)",
			c.Adversary.Name(), d)
	}
	if c.Trials < 1 {
		return fmt.Errorf("sim: trial config needs at least one trial, got %d", c.Trials)
	}
	if err := ValidateMaxTime(c.NumAgents, c.MaxTime); err != nil {
		return err
	}
	if c.Faults != nil {
		if err := c.Faults.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// TrialStats aggregates the outcomes of the Monte-Carlo trials. It is built
// by streaming accumulators, so its size is bounded by the quantile-sketch
// cap (stats.DefaultSketchCap) rather than by the number of trials: up to the
// cap all quantiles are exact, beyond it they are P² estimates.
//
// The JSON encoding is a stability contract: antserve streams TrialStats in
// NDJSON rows and the durable result store (internal/cache) persists them
// across restarts, so marshal → unmarshal → marshal must be a fixed point
// and a decoded value must answer every derived query identically
// (TestTrialStatsJSONRoundTrip). Changing the encoding means bumping
// cache.StoreSchemaVersion so old stores are skipped, not misread.
type TrialStats struct {
	// Config echoes the inputs that produced these statistics.
	NumAgents int
	Distance  int
	Trials    int

	// Found is the number of trials in which the treasure was found before
	// the cap; Capped is the number that hit the cap.
	Found  int
	Capped int

	// Time summarises the first-hit time over the trials that found the
	// treasure.
	Time stats.Summary
	// AllTime summarises the per-trial time over all trials, counting capped
	// trials at the cap value. When Capped > 0 this is a lower bound on the
	// true expectation.
	AllTime stats.Summary
	// Ratio summarises the per-trial competitive ratio Time/(D + D²/k) over
	// all trials (capped trials counted at the cap).
	Ratio stats.Summary
	// TimeQuantiles holds the per-trial first-hit time distribution over all
	// trials (capped trials at the cap), for medians and tail analyses.
	TimeQuantiles stats.QuantileSummary
	// FoundTimeQuantiles holds the first-hit time distribution over only the
	// trials that found the treasure before the cap.
	FoundTimeQuantiles stats.QuantileSummary
	// Survivors summarises per-trial k′, the number of agents alive at the
	// trial's reported time. Fault-free configurations report the constant k.
	Survivors stats.Summary
	// SurvivorRatio summarises Time/(D + D²/k′), the competitive ratio
	// re-based against the surviving agents (sim.Result.
	// SurvivorCompetitiveRatio); all-crashed trials, whose ratio is NaN,
	// are excluded.
	SurvivorRatio stats.Summary
}

// SuccessRate returns the fraction of trials that found the treasure.
func (s TrialStats) SuccessRate() float64 {
	if s.Trials == 0 {
		return 0
	}
	return float64(s.Found) / float64(s.Trials)
}

// MeanTime returns the mean first-hit time over all trials (capped trials at
// the cap), the estimator used for "expected running time" in the tables.
func (s TrialStats) MeanTime() float64 { return s.AllTime.Mean }

// MedianTime returns the median per-trial time (capped trials at the cap).
func (s TrialStats) MedianTime() float64 { return s.TimeQuantiles.Median() }

// MedianFoundTime returns the median first-hit time over the trials that
// found the treasure before the cap (0 if none did).
func (s TrialStats) MedianFoundTime() float64 { return s.FoundTimeQuantiles.Median() }

// MeanRatio returns the mean competitive ratio.
func (s TrialStats) MeanRatio() float64 { return s.Ratio.Mean }

// MeanSurvivors returns the mean per-trial survivor count k′.
func (s TrialStats) MeanSurvivors() float64 { return s.Survivors.Mean }

// MeanSurvivorRatio returns the mean competitive ratio against the
// surviving-k′ lower bound.
func (s TrialStats) MeanSurvivorRatio() float64 { return s.SurvivorRatio.Mean }

// LowerBound returns D + D²/k for this configuration.
func (s TrialStats) LowerBound() float64 {
	d := float64(s.Distance)
	return d + d*d/float64(s.NumAgents)
}

// TrialAccumulator folds per-trial results into streaming statistics in
// bounded memory. The sweep engine adds every trial to one running
// accumulator in trial order. The zero value is not usable; construct with
// NewTrialAccumulator.
//
//antlint:codec version=trialAccumulatorStateVersion fields=numAgents,distance,trials,found,capped,time,allTime,ratio,survivors,survivorRatio,times,foundTimes encode=MarshalBinary decode=UnmarshalBinary
type TrialAccumulator struct {
	numAgents int
	distance  int
	trials    int
	found     int
	capped    int

	time          stats.Accumulator
	allTime       stats.Accumulator
	ratio         stats.Accumulator
	survivors     stats.Accumulator
	survivorRatio stats.Accumulator

	times      *stats.Sketch
	foundTimes *stats.Sketch
}

// NewTrialAccumulator returns an empty accumulator for a configuration with
// the given number of agents and treasure distance.
func NewTrialAccumulator(numAgents, distance int) *TrialAccumulator {
	return &TrialAccumulator{
		numAgents:  numAgents,
		distance:   distance,
		times:      stats.NewSketch(0),
		foundTimes: stats.NewSketch(0),
	}
}

// Add incorporates one trial result.
func (a *TrialAccumulator) Add(r Result) {
	a.trials++
	if r.Found {
		a.found++
		a.time.Add(float64(r.Time))
		a.foundTimes.Add(float64(r.Time))
	}
	if r.Capped {
		a.capped++
	}
	a.allTime.Add(float64(r.Time))
	if ratio := r.CompetitiveRatio(); !math.IsNaN(ratio) {
		// A NaN ratio marks the degenerate D=0 instance, which the engines
		// reject before any trial runs; excluding it keeps the accumulator
		// well defined even for hand-built Results.
		a.ratio.Add(ratio)
	}
	a.survivors.Add(float64(r.Survivors))
	if sr := r.SurvivorCompetitiveRatio(); !math.IsNaN(sr) {
		// NaN here additionally marks all-crashed trials, whose k′ bound is
		// +Inf; they carry no ratio information.
		a.survivorRatio.Add(sr)
	}
	a.times.Add(float64(r.Time))
}

// Merge folds another accumulator into a, as if every trial added to b had
// been added to a. Counts, extremes and exact-mode quantiles are exact; the
// means and variances use the summary-formula merge of stats.Accumulator, so
// the result is deterministic but depends on the partition in the last bits.
// The sweep engine does not merge: it adds each trial to the running total.
func (a *TrialAccumulator) Merge(b *TrialAccumulator) {
	a.trials += b.trials
	a.found += b.found
	a.capped += b.capped
	a.time.Merge(b.time)
	a.allTime.Merge(b.allTime)
	a.ratio.Merge(b.ratio)
	a.survivors.Merge(b.survivors)
	a.survivorRatio.Merge(b.survivorRatio)
	a.times.Merge(b.times)
	a.foundTimes.Merge(b.foundTimes)
}

// Stats snapshots the accumulator into a TrialStats value.
func (a *TrialAccumulator) Stats() TrialStats {
	return TrialStats{
		NumAgents:          a.numAgents,
		Distance:           a.distance,
		Trials:             a.trials,
		Found:              a.found,
		Capped:             a.capped,
		Time:               a.time.Summarize(),
		AllTime:            a.allTime.Summarize(),
		Ratio:              a.ratio.Summarize(),
		TimeQuantiles:      a.times.Summary(),
		FoundTimeQuantiles: a.foundTimes.Summary(),
		Survivors:          a.survivors.Summarize(),
		SurvivorRatio:      a.survivorRatio.Summarize(),
	}
}

// minShardTrials is the smallest batch of trials worth scheduling as an
// independent shard: below it the per-shard fixed costs (result slice, engine
// pool round-trip, task claim) dominate the trials themselves.
const minShardTrials = 8

// maxShardTrials bounds every planned shard, and so the result slice a shard
// hands to the ordered reducer: with O(workers) shards in flight, memory stays
// independent of the trial count.
const maxShardTrials = 1024

// shardRange returns the half-open trial range [lo, hi) of shard s when
// trials are split into numShards contiguous, near-equal shards.
func shardRange(trials, numShards, s int) (lo, hi int) {
	lo = s * trials / numShards
	hi = (s + 1) * trials / numShards
	return lo, hi
}

// planShards is the shard planner: it returns the number of contiguous,
// near-equal shards a trial range is split into, batching roughly
// trials/workers trials per shard with a minimum batch of minShardTrials and
// a maximum of maxShardTrials. The plan decides only how work is scheduled
// and checkpointed: the fold adds every trial in trial order, so the
// aggregate is the same at any plan (TestStreamingShardInvariance). The shard
// count is unbounded (about trials / maxShardTrials for huge runs); the
// ordered streaming reduce in MonteCarlo keeps only O(workers) shards in
// flight however many the plan produces.
func planShards(trials, workers int) int {
	if trials <= minShardTrials {
		return 1
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers < 1 {
		workers = 1
	}
	batch := (trials + workers - 1) / workers
	if batch < minShardTrials {
		batch = minShardTrials
	}
	if batch > maxShardTrials {
		batch = maxShardTrials
	}
	// Floor division so every shard holds at least `batch` trials — rounding
	// the shard count up instead would cut shards below the minimum batch
	// (e.g. 12 trials over 4 workers: batch 8, two shards of 6).
	shards := trials / batch
	if shards < 1 {
		shards = 1
	}
	// Flooring can push the largest shard past the cap when batch already
	// sits at it (5000 trials, 1 worker: 4 shards of up to 1250); split
	// further until every shard fits.
	if (trials+shards-1)/shards > maxShardTrials {
		shards = (trials + maxShardTrials - 1) / maxShardTrials
	}
	return shards
}

// runTrial executes one trial of the configuration. Per-trial randomness is
// derived from the base seed and the trial index alone, so any sharding of
// the trial range reproduces identical per-trial results.
func runTrial(cfg TrialConfig, alg agent.Algorithm, trial int) (Result, error) {
	placeRNG := xrand.NewStream(cfg.Seed, xrand.PathPlacement, uint64(trial))
	treasure := cfg.Adversary.Place(trial, placeRNG)
	inst := Instance{
		Algorithm: alg,
		NumAgents: cfg.NumAgents,
		Treasure:  treasure,
		Faults:    cfg.Faults,
	}
	return Run(inst, Options{
		Seed:    xrand.DeriveSeed(cfg.Seed, xrand.PathTrial, uint64(trial)),
		MaxTime: cfg.MaxTime,
	})
}

// enginePool recycles engines — their agent slots, heap storage and, through
// agent.SearcherReuser, their searchers — across shards and across cells, so
// steady state serves every shard of every concurrent sweep from a handful
// of engines per worker goroutine. Engines carry no results, only scratch
// state, and reset re-derives everything from (seed, trial), so reuse cannot
// leak state between trials.
var enginePool = sync.Pool{New: func() any { return new(engine) }}

// runShard executes the contiguous trial range [lo, hi) with one pooled
// engine and returns the results in trial order. All per-trial state — agent
// slots, heap storage, per-agent and placement streams — is reset in place
// between trials, so the engine-level allocation cost is O(1) per shard, not
// per trial; algorithms implementing agent.SearcherReuser bring even the
// searcher allocations down to pool-miss-only. Every trial's randomness
// still derives from (seed, trial) alone, exactly as in runTrial, so the
// per-trial results are independent of the sharding.
func runShard(ctx context.Context, cfg TrialConfig, alg agent.Algorithm, lo, hi int) ([]Result, error) {
	results := make([]Result, 0, hi-lo)
	e := enginePool.Get().(*engine)
	defer enginePool.Put(e)
	inst := Instance{Algorithm: alg, NumAgents: cfg.NumAgents, Faults: cfg.Faults}
	opts := Options{MaxTime: cfg.MaxTime}
	// One type assertion per shard, not per trial: reset receives the hoisted
	// reuser for every trial in the range.
	reuser, _ := alg.(agent.SearcherReuser)
	for trial := lo; trial < hi; trial++ {
		if err := ctx.Err(); err != nil {
			// Batched shards run many trials per task; observe cancellation
			// between trials, not only between shards.
			return nil, err
		}
		e.placeRNG.Reset(cfg.Seed, xrand.PathPlacement, uint64(trial))
		inst.Treasure = cfg.Adversary.Place(trial, &e.placeRNG)
		opts.Seed = xrand.DeriveSeed(cfg.Seed, xrand.PathTrial, uint64(trial))
		r, err := e.runAnalytic(inst, opts, reuser)
		if err != nil {
			return nil, err
		}
		results = append(results, r)
	}
	return results, nil
}

// MonteCarlo runs the configured number of independent trials, batched into
// contiguous shards by planShards, fanned out over goroutines, and folded by
// an ordered streaming reduce (parallel.ReduceOrderedFrom): each shard
// returns its per-trial results, and the reducer adds them to the running
// total in strict trial order the moment they become mergeable, with only
// O(workers) shards in flight, so memory is independent of the trial count.
// The total is a sequential fold by construction: per-trial randomness
// derives from (seed, trial) alone and every trial is added exactly once, in
// order, so the aggregate is identical bit for bit whatever the worker count
// or shard plan.
func MonteCarlo(ctx context.Context, cfg TrialConfig) (TrialStats, error) {
	if err := cfg.Validate(); err != nil {
		return TrialStats{}, err
	}
	alg := cfg.Factory(cfg.NumAgents)
	if alg == nil {
		return TrialStats{}, errors.New("sim: factory returned a nil algorithm")
	}

	shards := planShards(cfg.Trials, cfg.Workers)
	// The fold state lives in one struct captured by the closures below, so
	// the no-hook path allocates one escaped variable, whatever the number of
	// fields.
	st := foldState{cfg: &cfg, shards: shards, total: NewTrialAccumulator(cfg.NumAgents, cfg.Adversary.Distance())}
	st.resume()
	if cfg.Progress != nil && st.resumed > 0 {
		// Report the restored prefix before any new shard computes, so a
		// consumer learns immediately that (and how far) the run resumed.
		st.report()
	}
	err := parallel.ReduceOrderedFrom(ctx, st.shardsDone, shards, cfg.Workers, func(s int) ([]Result, error) {
		lo, hi := shardRange(cfg.Trials, shards, s)
		return runShard(ctx, cfg, alg, lo, hi)
	}, st.merge)
	if err != nil {
		return TrialStats{}, fmt.Errorf("sim: monte carlo: %w", err)
	}
	return st.total.Stats(), nil
}

// foldState carries the running total and progress/checkpoint bookkeeping of
// one MonteCarlo fold. merge is the ReduceOrderedFrom sink: calls arrive
// serialized in shard order, so no field needs locking.
type foldState struct {
	cfg        *TrialConfig
	shards     int
	total      *TrialAccumulator
	shardsDone int
	resumed    int // shards restored from a checkpoint, <= shardsDone
}

// resume seeds the fold from the longest valid persisted prefix, if the
// configuration carries a Checkpointer and the store holds one. Validity is
// strict: the checkpoint's totals must match this run, its trial prefix must
// end exactly on a shard boundary of the current plan (checkpoints written
// under a different worker count resume when their boundary aligns — the
// fold is sequential, so the result stays bit-identical), and its
// state must decode into a consistent accumulator covering that prefix.
// Anything else is ignored and the run starts fresh; a checkpoint can only
// ever save work, never corrupt a result.
func (st *foldState) resume() {
	if st.cfg.Checkpointer == nil {
		return
	}
	cfg := st.cfg
	var restored *TrialAccumulator
	resumeShard := 0
	_, ok := cfg.Checkpointer.Load(func(cp CheckpointState) bool {
		if cp.TotalTrials != cfg.Trials {
			return false
		}
		s := alignShard(cfg.Trials, st.shards, cp.TrialsDone)
		if s < 1 {
			return false
		}
		acc := new(TrialAccumulator)
		if err := acc.UnmarshalBinary(cp.State); err != nil {
			return false
		}
		if acc.trials != cp.TrialsDone || acc.numAgents != cfg.NumAgents ||
			acc.distance != cfg.Adversary.Distance() {
			return false
		}
		restored, resumeShard = acc, s
		return true
	})
	if !ok {
		return
	}
	st.total = restored
	st.shardsDone = resumeShard
	st.resumed = resumeShard
}

// merge adds one shard's results to the running total, in trial order, and
// drives the progress and checkpoint hooks.
func (st *foldState) merge(results []Result) {
	for _, r := range results {
		st.total.Add(r)
	}
	st.shardsDone++
	cfg := st.cfg
	if cfg.Progress != nil {
		if stride := progressStride(cfg.ProgressEvery, st.shards); st.shardsDone%stride == 0 || st.shardsDone == st.shards {
			st.report()
		}
	}
	if cfg.Checkpointer != nil && st.shardsDone < st.shards {
		every := cfg.CheckpointEvery
		if every <= 0 {
			every = DefaultCheckpointEvery
		}
		if st.shardsDone%every == 0 {
			if state, err := st.total.MarshalBinary(); err == nil {
				// Save errors are deliberately dropped: the Checkpointer owns
				// counting and degrading (a full disk turns the run into a
				// progress-only one), the fold just keeps going.
				_ = cfg.Checkpointer.Save(CheckpointState{
					ShardsDone:  st.shardsDone,
					TotalShards: st.shards,
					TrialsDone:  st.trialsDone(),
					TotalTrials: cfg.Trials,
					State:       state,
				})
			}
		}
	}
}

// trialsDone is the number of trials covered by the first shardsDone shards:
// the lo boundary of the next shard, by the shardRange construction.
func (st *foldState) trialsDone() int {
	if st.shardsDone >= st.shards {
		return st.cfg.Trials
	}
	lo, _ := shardRange(st.cfg.Trials, st.shards, st.shardsDone)
	return lo
}

// report fires the progress hook with a snapshot of the running aggregate.
func (st *foldState) report() {
	st.cfg.Progress(Progress{
		ShardsDone:    st.shardsDone,
		TotalShards:   st.shards,
		TrialsDone:    st.trialsDone(),
		TotalTrials:   st.cfg.Trials,
		ResumedShards: st.resumed,
		Stats:         st.total.Stats(),
	})
}

// MonteCarloResults runs the trials like MonteCarlo but returns the raw
// per-trial results (in trial order) instead of an aggregate. Analyses that
// need joint statistics across configurations use it directly; unlike
// MonteCarlo it necessarily materializes O(trials) results.
func MonteCarloResults(ctx context.Context, cfg TrialConfig) ([]Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	alg := cfg.Factory(cfg.NumAgents)
	if alg == nil {
		return nil, errors.New("sim: factory returned a nil algorithm")
	}
	results, err := parallel.Map(ctx, cfg.Trials, cfg.Workers, func(trial int) (Result, error) {
		return runTrial(cfg, alg, trial)
	})
	if err != nil {
		return nil, fmt.Errorf("sim: monte carlo: %w", err)
	}
	return results, nil
}
