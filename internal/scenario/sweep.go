package scenario

import (
	"context"
	"fmt"
	"runtime"

	"antsearch/internal/adversary"
	"antsearch/internal/agent"
	"antsearch/internal/fault"
	"antsearch/internal/parallel"
	"antsearch/internal/sim"
)

// Cell is one fully resolved configuration of a sweep: a named strategy with
// its advice-model factory, an instance size (k, D), a trial budget and the
// seed its trials derive their randomness from.
type Cell struct {
	// Scenario is the name the cell is reported under in tables.
	Scenario string
	// Factory is the advice-model factory executed by the trials.
	Factory agent.Factory
	// K is the number of agents; D the treasure distance.
	K, D int
	// Trials is the number of Monte-Carlo trials.
	Trials int
	// MaxTime caps each trial (0 = engine default).
	MaxTime int
	// Seed is the base seed for this cell; per-trial streams derive from it.
	Seed uint64
	// Adversary places the treasure each trial. Nil selects the uniform ring
	// at distance D, the default placement of all experiments.
	Adversary adversary.Strategy
	// Faults, when non-nil, applies the fault model to every trial of the
	// cell (grid expansion resolves it from explicit Params knobs or the
	// scenario's registered default).
	Faults *fault.Plan
}

// Runner executes sweep cells through the streaming Monte-Carlo engine:
// every cell's trials are partitioned into deterministic shards, fanned out
// over workers, aggregated per shard with streaming accumulators and merged
// in shard order. Memory per cell is bounded by the sketch cap, never by the
// trial budget.
type Runner struct {
	// Workers bounds the number of goroutines used per cell (0 = GOMAXPROCS).
	Workers int
	// CellWorkers bounds the number of cells executed concurrently. Zero or
	// one runs cells sequentially, the historical behaviour. Any value is
	// safe for correctness: per-trial randomness derives from (seed, trial)
	// and results are written index-for-index, so the output is identical to
	// the sequential path whatever the fan-out (see TestRunnerCellWorkersParity).
	CellWorkers int
	// Adaptive, when true, makes Run ignore Workers and CellWorkers and pick
	// the split itself with AutoSplit: a grid of many small cells routes the
	// cores to cross-cell parallelism with sequential trials per cell, a grid
	// of few big cells routes them to trial-level parallelism. The results
	// are bit-identical to every fixed configuration; only scheduling
	// changes.
	Adaptive bool
	// Progress, when non-nil, receives intra-cell progress updates as each
	// cell's ordered fold advances (see sim.TrialConfig.Progress). Cells may
	// run concurrently (CellWorkers > 1), so the callback must be safe for
	// concurrent use; updates for one cell never race each other.
	Progress func(Cell, sim.Progress)
	// ProgressEvery is the shard stride between updates (sim's semantics:
	// 0 = every shard, negative = automatic ~1% stride).
	ProgressEvery int
	// Checkpointer, when non-nil, supplies the per-cell checkpoint sink that
	// makes mega-cells resumable (typically cache.CheckpointStore.ForCell
	// composed with the cell's CellKey). Returning nil for a cell disables
	// checkpointing for it.
	Checkpointer func(Cell) sim.Checkpointer
	// CheckpointEvery is the shard interval between persisted checkpoints
	// (0 = sim.DefaultCheckpointEvery).
	CheckpointEvery int
}

// AutoSplit divides a core budget (0 or negative = GOMAXPROCS) between
// cross-cell and intra-cell parallelism for the given cells. The two layers
// multiply — cellWorkers cells in flight, each fanning trials over
// trialWorkers goroutines — so the product stays within the budget. The
// heuristic is the cells × trials shape of the grid: cells are the coarser,
// lower-overhead unit of work, so they get the cores first (many small cells
// → cellWorkers = cores, sequential trials); only when there are fewer cells
// than cores does the remainder go to trial-level fan-out (few big cells →
// trialWorkers = cores/cells), capped by the largest trial budget, which
// bounds the useful trial parallelism.
func AutoSplit(cells []Cell, cores int) (cellWorkers, trialWorkers int) {
	if cores <= 0 {
		cores = runtime.GOMAXPROCS(0)
	}
	if cores < 1 {
		cores = 1
	}
	if len(cells) == 0 {
		return 1, 1
	}
	cellWorkers = cores
	if len(cells) < cellWorkers {
		cellWorkers = len(cells)
	}
	trialWorkers = cores / cellWorkers
	maxTrials := 1
	for _, c := range cells {
		if c.Trials > maxTrials {
			maxTrials = c.Trials
		}
	}
	if trialWorkers > maxTrials {
		trialWorkers = maxTrials
	}
	if trialWorkers < 1 {
		trialWorkers = 1
	}
	return cellWorkers, trialWorkers
}

// RunOne executes a single cell and returns its aggregated statistics.
func (r Runner) RunOne(ctx context.Context, cell Cell) (sim.TrialStats, error) {
	adv := cell.Adversary
	if adv == nil {
		ring, err := adversary.NewUniformRing(cell.D)
		if err != nil {
			return sim.TrialStats{}, fmt.Errorf("scenario: cell %s k=%d D=%d: %w",
				cell.Scenario, cell.K, cell.D, err)
		}
		adv = ring
	}
	cfg := sim.TrialConfig{
		Factory:   cell.Factory,
		NumAgents: cell.K,
		Adversary: adv,
		Trials:    cell.Trials,
		Seed:      cell.Seed,
		MaxTime:   cell.MaxTime,
		Workers:   r.Workers,
		Faults:    cell.Faults,
	}
	if r.Progress != nil {
		cfg.Progress = func(p sim.Progress) { r.Progress(cell, p) }
		cfg.ProgressEvery = r.ProgressEvery
	}
	if r.Checkpointer != nil {
		cfg.Checkpointer = r.Checkpointer(cell)
		cfg.CheckpointEvery = r.CheckpointEvery
	}
	st, err := sim.MonteCarlo(ctx, cfg)
	if err != nil {
		return sim.TrialStats{}, fmt.Errorf("scenario: cell %s k=%d D=%d: %w",
			cell.Scenario, cell.K, cell.D, err)
	}
	return st, nil
}

// Run executes the cells and returns their statistics, index for index.
// With CellWorkers <= 1 the cells run sequentially; larger values fan
// independent cells out over goroutines. Either way every cell's statistics
// are a pure function of its own configuration and seed, so the results are
// identical — bit for bit — across all CellWorkers values; only wall-clock
// time and error selection under multiple failures differ.
func (r Runner) Run(ctx context.Context, cells []Cell) ([]sim.TrialStats, error) {
	if r.Adaptive {
		r.CellWorkers, r.Workers = AutoSplit(cells, 0)
		r.Adaptive = false
	}
	if r.CellWorkers > 1 {
		return parallel.Map(ctx, len(cells), r.CellWorkers, func(i int) (sim.TrialStats, error) {
			return r.RunOne(ctx, cells[i])
		})
	}
	out := make([]sim.TrialStats, len(cells))
	for i, cell := range cells {
		st, err := r.RunOne(ctx, cell)
		if err != nil {
			return nil, err
		}
		out[i] = st
	}
	return out, nil
}

// Grid describes a (scenario × D × k) sweep in terms of registry names and
// ranges; Cells expands it into the runner's cell list, resolving every
// factory through the registry.
type Grid struct {
	// Scenarios are registry names, swept in the given order.
	Scenarios []string
	// Params parameterises the scenarios. A zero Params.D is filled in per
	// cell with the cell's D (how known-d learns its distance).
	Params Params
	// Ks and Ds are the agent counts and treasure distances. Empty ranges
	// fall back to each scenario's registered defaults.
	Ks, Ds []int
	// Trials is the per-cell trial budget (0 = the scenario's default).
	Trials int
	// MaxTime caps each trial (0 = engine default).
	MaxTime int
	// Seed seeds every cell. All cells share it — per-trial streams already
	// derive from (seed, trial), and a shared seed keeps a sweep's cells
	// comparable under common random numbers.
	Seed uint64
}

// Cells expands the grid, scenario-major, then by D, then by k (the
// traditional sweep-table row order).
func (g Grid) Cells() ([]Cell, error) {
	var cells []Cell
	for _, name := range g.Scenarios {
		scn, ok := Get(name)
		if !ok {
			return nil, fmt.Errorf("scenario: unknown scenario %q", name)
		}
		ks := g.Ks
		if len(ks) == 0 {
			ks = scn.Ks
		}
		ds := g.Ds
		if len(ds) == 0 {
			ds = scn.Ds
		}
		trials := g.Trials
		if trials == 0 {
			trials = scn.Trials
		}
		if len(ks) == 0 || len(ds) == 0 || trials < 1 {
			return nil, fmt.Errorf("scenario: %q has no usable k/D/trials ranges", name)
		}
		// Validate range values here, at expansion time, so detectably
		// invalid grids fail up front (e.g. an HTTP 400 from antserve)
		// instead of mid-sweep from deep inside the engine.
		for _, k := range ks {
			if k < 1 {
				return nil, fmt.Errorf("scenario: %q: k values must be >= 1, got %d", name, k)
			}
			if err := sim.ValidateMaxTime(k, g.MaxTime); err != nil {
				return nil, fmt.Errorf("scenario: %q: %w", name, err)
			}
		}
		for _, d := range ds {
			if d < 1 {
				return nil, fmt.Errorf("scenario: %q: D values must be >= 1, got %d", name, d)
			}
		}
		if g.MaxTime < 0 {
			return nil, fmt.Errorf("scenario: %q: MaxTime must be >= 0 (0 = engine default), got %d", name, g.MaxTime)
		}
		// Explicit Params fault knobs take precedence; otherwise the
		// scenario's registered default plan (how the -faulty variants carry
		// their model) applies. Validated here at expansion time like the
		// ranges above, so a bad plan fails the request, not the sweep.
		faults := g.Params.FaultPlan()
		if faults == nil {
			faults = scn.Faults
		}
		if faults != nil {
			if err := faults.Validate(); err != nil {
				return nil, fmt.Errorf("scenario: %q: %w", name, err)
			}
		}
		if g.Params.D != 0 && len(ds) > 1 {
			// An explicit Params.D pins every factory to one advice distance
			// while the cells would be reported under the swept D — a silent
			// advice/instance mismatch. A single swept D with an explicit
			// (possibly different) Params.D stays legal: that is the
			// deliberate "wrong advice" experiment.
			return nil, fmt.Errorf(
				"scenario: %q: explicit Params.D=%d conflicts with sweeping %d distances %v; "+
					"leave Params.D zero to parameterise each cell with its own D",
				name, g.Params.D, len(ds), ds)
		}
		for _, d := range ds {
			p := g.Params
			if p.D == 0 {
				p.D = d
			}
			factory, err := scn.Build(p)
			if err != nil {
				return nil, fmt.Errorf("scenario %q: %w", name, err)
			}
			for _, k := range ks {
				cells = append(cells, Cell{
					Scenario: name,
					Factory:  factory,
					K:        k,
					D:        d,
					Trials:   trials,
					MaxTime:  g.MaxTime,
					Seed:     g.Seed,
					Faults:   faults,
				})
			}
		}
	}
	return cells, nil
}
