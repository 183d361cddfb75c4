package sim

// Allocation-regression tests for the trial hot path. The engine's guarantee
// is O(1) allocations per shard rather than per trial: agent slots, heap
// storage, random streams and (through agent.SearcherReuser) searchers are
// all reset in place between trials. These tests pin the amortized per-trial
// allocation rate for a representative non-uniform (known-k), uniform
// (Algorithm 1) and uniform one-shot (harmonic) cell, so a regression — a new
// per-segment box, a searcher that stops being reusable, a stream that
// reallocates — fails loudly here instead of surfacing as a slow drift in
// BENCH_sweep.json.

import (
	"context"
	"testing"

	"antsearch/internal/adversary"
	"antsearch/internal/agent"
	"antsearch/internal/core"
	"antsearch/internal/xrand"
)

// allocsPerTrial measures the amortized allocations per trial of runShard on
// a single warm shard of the given width.
func allocsPerTrial(t *testing.T, cfg TrialConfig, trials int) float64 {
	t.Helper()
	alg := cfg.Factory(cfg.NumAgents)
	if alg == nil {
		t.Fatal("factory returned nil")
	}
	ctx := context.Background()
	// Warm the engine pool so the measurement sees the steady state.
	if _, err := runShard(ctx, cfg, alg, 0, trials); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := runShard(ctx, cfg, alg, 0, trials); err != nil {
			t.Fatal(err)
		}
	})
	return allocs / float64(trials)
}

func TestAllocsPerTrialKnownK(t *testing.T) {
	ring, err := adversary.NewUniformRing(8)
	if err != nil {
		t.Fatal(err)
	}
	cfg := TrialConfig{
		Factory:   core.Factory(),
		NumAgents: 4,
		Adversary: ring,
		Trials:    64,
		Seed:      3,
	}
	// Budget: the accumulator's sketch appends amortize to ~1 per trial and
	// everything else is reused. The pre-refactor engine sat at ~151.
	const budget = 4.0
	if got := allocsPerTrial(t, cfg, 64); got > budget {
		t.Errorf("known-k cell allocates %.2f times per trial, budget %.1f", got, budget)
	}
}

func TestAllocsPerTrialUniform(t *testing.T) {
	factory, err := core.UniformFactory(0.5)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := adversary.NewUniformRing(8)
	if err != nil {
		t.Fatal(err)
	}
	cfg := TrialConfig{
		Factory:   factory,
		NumAgents: 4,
		Adversary: ring,
		Trials:    64,
		Seed:      3,
	}
	// The schedule table is built once per algorithm, on the warm-up shard,
	// so it does not count against the steady state.
	const budget = 4.0
	if got := allocsPerTrial(t, cfg, 64); got > budget {
		t.Errorf("uniform cell allocates %.2f times per trial, budget %.1f", got, budget)
	}
}

func TestAllocsPerTrialHarmonic(t *testing.T) {
	factory, err := core.HarmonicFactory(0.5)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := adversary.NewUniformRing(4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := TrialConfig{
		Factory:   factory,
		NumAgents: 8,
		Adversary: ring,
		Trials:    64,
		Seed:      3,
		MaxTime:   1 << 20,
	}
	const budget = 4.0
	if got := allocsPerTrial(t, cfg, 64); got > budget {
		t.Errorf("harmonic cell allocates %.2f times per trial, budget %.1f", got, budget)
	}
}

// BenchmarkEngineUniformK16 measures one trial of the analytic engine on the
// megacell shape: uniform ε=0.5, k=16, treasure on the D=32 ring. It times
// emission, Seg.Scan and the heap without the shard's accumulator or the
// fan-out (ns/op = ns per trial); each iteration is a fresh trial seed.
func BenchmarkEngineUniformK16(b *testing.B) {
	ring, err := adversary.NewUniformRing(32)
	if err != nil {
		b.Fatal(err)
	}
	alg := core.MustUniform(0.5)
	var e engine
	inst := Instance{Algorithm: alg, NumAgents: 16}
	reuser := agent.SearcherReuser(alg)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		e.placeRNG.Reset(1, xrand.PathPlacement, uint64(n))
		inst.Treasure = ring.Place(n, &e.placeRNG)
		opts := Options{Seed: xrand.DeriveSeed(1, xrand.PathTrial, uint64(n))}
		if _, err := e.runAnalytic(inst, opts, reuser); err != nil {
			b.Fatal(err)
		}
	}
}
