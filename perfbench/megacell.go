package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"antsearch/internal/adversary"
	"antsearch/internal/scenario"
	"antsearch/internal/sim"
	"antsearch/internal/xrand"
)

// The megacell workload: the paper's uniform algorithm (Theorem 3.3) on one
// instance size, run as a sequence of cells through scenario.Runner.RunOne
// with trial workers = nproc, the path antsweep and antserve take. One
// operation is one cell of cellTrials trials, two shards at two workers.
// A trial's own latency is no good as the operation: trial times fall into
// one mode per search phase, and the median sits in the valley between
// two of them, where a shift of a few trials moves it by 20%. A cell's
// time sums many trials and has one mode. The ledger's traced cell holds
// megaTrials trials.
const (
	megaK       = 16
	megaD       = 32
	megaEps     = 0.5
	cellTrials  = 128
	megaTrials  = 4096
	megaVerify  = 256 // trials of the verification prefix
	warmTrials  = 16  // trials of the warm-up cell timed as set-up
	setupRepeat = 25
)

// megaCell returns the i-th cell of the megacell sequence for a seed.
func megaCell(seed uint64, i, trials int) (scenario.Cell, error) {
	f, err := scenario.Factory("uniform", scenario.Params{Epsilon: megaEps})
	if err != nil {
		return scenario.Cell{}, err
	}
	return scenario.Cell{
		Scenario: "uniform",
		Factory:  f,
		K:        megaK,
		D:        megaD,
		Trials:   trials,
		Seed:     xrand.DeriveSeed(seed, 0x6d63, uint64(i)),
	}, nil
}

func runMegacell(o options, t *tally) (map[string]metric, error) {
	ctx := context.Background()
	workers := runtime.NumCPU()
	setup, err := megaSetup(ctx, o.seed, workers)
	if err != nil {
		return nil, err
	}

	var (
		lat    []float64
		trials int
		wall   time.Duration
	)
	deadline := time.Duration(o.seconds * float64(time.Second))
	for i := 0; wall < deadline || len(lat) < minTailSamples; i++ {
		cell, err := megaCell(o.seed, i, cellTrials)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		st, err := scenario.Runner{Workers: workers}.RunOne(ctx, cell)
		elapsed := time.Since(start)
		wall += elapsed
		if err != nil {
			t.op(1, 1, "megacell: RunOne: "+err.Error())
			continue
		}
		ok := st.Trials == cellTrials && st.Found+st.Capped == cellTrials
		t.op(1, boolInt(!ok), "megacell: aggregate does not count every trial")
		if ok {
			trials += cellTrials
			lat = append(lat, float64(elapsed)/float64(time.Millisecond))
		}
	}

	digest := megaChecks(ctx, o.seed, workers, t)
	fmt.Printf("digest megacell %s\n", digest)
	rss, err := peakRSSMB("self")
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: megacell %d cells, %d trials in %v\n", len(lat), trials, wall)
	return endToEnd(setup, len(lat), wall, lat, rss), nil
}

// megaSetup times what must happen before the first measured trial can run:
// resolving the scenario, building the cell and runner, and one warm-up cell
// that fills the engine pool. It repeats that setupRepeat times.
func megaSetup(ctx context.Context, seed uint64, workers int) ([]time.Duration, error) {
	var out []time.Duration
	for r := 0; r < setupRepeat; r++ {
		start := time.Now()
		cell, err := megaCell(seed, -1-r, warmTrials)
		if err != nil {
			return nil, err
		}
		if _, err := (scenario.Runner{Workers: workers}).RunOne(ctx, cell); err != nil {
			return nil, err
		}
		out = append(out, time.Since(start))
	}
	return out, nil
}

// megaChecks runs the megacell correctness gates on the verification prefix
// and returns the output digest:
//   - the RunOne aggregate's JSON equals a sequential TrialAccumulator.Add
//     fold of sim.MonteCarloResults for the same configuration;
//   - RunOne with one worker equals RunOne with nproc workers.
func megaChecks(ctx context.Context, seed uint64, workers int, t *tally) string {
	cell, err := megaCell(seed, 0, megaVerify)
	if err != nil {
		t.check(false, "megacell: building the verification cell: "+err.Error())
		return ""
	}
	parallelJSON, err := runOneJSON(ctx, cell, workers)
	if err != nil {
		t.check(false, "megacell: verification RunOne: "+err.Error())
		return ""
	}
	serialJSON, err := runOneJSON(ctx, cell, 1)
	t.check(err == nil && string(serialJSON) == string(parallelJSON),
		"megacell: RunOne differs between workers=1 and workers=nproc")

	ring, err := adversary.NewUniformRing(megaD)
	if err != nil {
		t.check(false, "megacell: "+err.Error())
		return ""
	}
	results, err := sim.MonteCarloResults(ctx, sim.TrialConfig{
		Factory: cell.Factory, NumAgents: megaK, Adversary: ring,
		Trials: megaVerify, Seed: cell.Seed, Workers: workers,
	})
	if err != nil {
		t.check(false, "megacell: MonteCarloResults: "+err.Error())
		return ""
	}
	acc := sim.NewTrialAccumulator(megaK, megaD)
	for _, r := range results {
		acc.Add(r)
	}
	foldJSON, err := json.Marshal(acc.Stats())
	t.check(err == nil && string(foldJSON) == string(parallelJSON),
		"megacell: RunOne aggregate differs from the sequential fold of MonteCarloResults")
	return fmt.Sprintf("%x", sha256.Sum256(parallelJSON))
}

// runOneJSON runs a cell with the given trial workers and returns its
// aggregate's JSON encoding.
func runOneJSON(ctx context.Context, cell scenario.Cell, workers int) ([]byte, error) {
	st, err := scenario.Runner{Workers: workers}.RunOne(ctx, cell)
	if err != nil {
		return nil, err
	}
	return json.Marshal(st)
}
