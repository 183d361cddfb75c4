package sim

// Property test for the ordered fold at the TrialStats level: MonteCarlo
// must produce TrialStats bit-identical to the sequential fold over the same
// per-trial results — counts, means, variances, extremes and the full
// quantile-sketch state — whatever shard plan the worker count selects. The
// fold adds each trial once, in trial order, so the partition cannot show up
// in the output.

import (
	"context"
	"reflect"
	"testing"

	"antsearch/internal/adversary"
	"antsearch/internal/core"
)

func TestTrialStatsPartitionInvariance(t *testing.T) {
	t.Parallel()

	ring, err := adversary.NewUniformRing(8)
	if err != nil {
		t.Fatal(err)
	}
	for _, trials := range []int{1, 2, 9, 64, 257, 1500} {
		cfg := TrialConfig{
			Factory:   core.Factory(),
			NumAgents: 3,
			Adversary: ring,
			Trials:    trials,
			Seed:      uint64(77 + trials),
			MaxTime:   4000,
		}
		results, err := MonteCarloResults(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}

		seq := NewTrialAccumulator(cfg.NumAgents, ring.Distance())
		for _, r := range results {
			seq.Add(r)
		}
		want := seq.Stats()

		// The engine's own plans must land on the same bits as the
		// sequential fold, at the machine's default and at worker counts
		// that cut the trials into different shards.
		for _, workers := range []int{0, 1, 3, 8} {
			cfg.Workers = workers
			st, err := MonteCarlo(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(st, want) {
				t.Errorf("trials=%d workers=%d: MonteCarlo differs from sequential fold:\n got %+v\nwant %+v",
					trials, workers, st, want)
			}
		}
	}
}

// TestPlanShardsInvariants pins the planner's contract over a spread of
// (trials, workers) shapes, including far beyond the historical 2^20-trial
// fixed-partition regime: at least one shard; no shard ever exceeds
// maxShardTrials trials (the bound on a shard's result slice) and none dips
// below the minimum batch.
func TestPlanShardsInvariants(t *testing.T) {
	t.Parallel()

	workersList := []int{0, 1, 2, 3, 4, 8, 32, 256}
	for _, trials := range []int{1, 7, 8, 9, 12, 63, 64, 100, 1023, 1024, 1025, 5000, 100000,
		1024 * maxShardTrials, 1024*maxShardTrials + 1, 5000 * maxShardTrials} {
		for _, workers := range workersList {
			shards := planShards(trials, workers)
			if shards < 1 {
				t.Fatalf("trials=%d workers=%d: %d shards", trials, workers, shards)
			}
			maxSize, minSize := 0, trials+1
			for s := 0; s < shards; s++ {
				lo, hi := shardRange(trials, shards, s)
				if size := hi - lo; size > 0 {
					if size > maxSize {
						maxSize = size
					}
					if size < minSize {
						minSize = size
					}
				}
			}
			if maxSize > maxShardTrials {
				t.Errorf("trials=%d workers=%d: shard of %d trials exceeds the cap %d",
					trials, workers, maxSize, maxShardTrials)
			}
			wantMin := minShardTrials
			if trials < wantMin {
				wantMin = trials
			}
			if minSize < wantMin {
				t.Errorf("trials=%d workers=%d: shard of %d trials is below the minimum batch %d",
					trials, workers, minSize, wantMin)
			}
		}
	}
	// Beyond the historical 1024-shard pin the planner must keep splitting:
	// enough shards that every one fits the cap, never a capped count that
	// would force shards past it.
	beyond := 1024*maxShardTrials + 1
	for _, workers := range workersList {
		got := planShards(beyond, workers)
		if wantMin := (beyond + maxShardTrials - 1) / maxShardTrials; got < wantMin {
			t.Errorf("beyond 2^20 trials: planShards(%d, %d) = %d shards, need at least %d to keep every shard within the cap",
				beyond, workers, got, wantMin)
		}
	}
}
