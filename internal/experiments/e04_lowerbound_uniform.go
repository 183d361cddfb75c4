package experiments

import (
	"context"
	"fmt"

	"antsearch/internal/lowerbound"
	"antsearch/internal/scenario"
	"antsearch/internal/table"
)

// experimentE4 illustrates Theorem 4.1 — no uniform algorithm is
// O(log k)-competitive — in two complementary ways.
//
// Part A runs the uniform algorithm with a small hedging exponent and tracks
// its measured competitive ratio divided by log₂ k: if the algorithm were
// O(log k)-competitive the normalised values would stay bounded; instead they
// drift upward, exactly as the theorem demands of *every* uniform algorithm.
//
// Part B reproduces the proof's counting argument with the coverage harness:
// it measures how many distinct nodes a single agent must visit, per distance
// scale, within a fixed horizon, and compares the growth of the per-scale
// charge sum with the budget an agent actually has (the horizon itself). The
// measured per-agent coverage always respects the budget — which is the
// physical constraint that forces Σ 1/φ(2^i) to converge and rules out
// φ(k) = O(log k).
func experimentE4() Experiment {
	return Experiment{
		ID:    "E4",
		Title: "No uniform algorithm is O(log k)-competitive",
		Claim: "Theorem 4.1 (uniform lower bound)",
		Run:   runE4,
	}
}

func runE4(ctx context.Context, cfg Config) (*Outcome, error) {
	out := &Outcome{}

	// Part A: normalised competitiveness of the uniform algorithm with a
	// small ε (closest allowed approach to the forbidden O(log k)).
	eps := 0.2
	maxK := pick(cfg, 64, 512, 1024)
	trials := pick(cfg, 8, 30, 60)
	factory, err := factoryFor("uniform", scenario.Params{Epsilon: eps})
	if err != nil {
		return nil, fmt.Errorf("E4: %w", err)
	}
	tblA := table.New(fmt.Sprintf("E4a: Uniform(ε=%.2g) competitiveness divided by log k", eps),
		"k", "D", "ratio", "ratio / log2 k", "ratio / log^(1+ε) k")
	scales := geometricInts(4, maxK)
	cells := make([]sweepCell, len(scales))
	for i, k := range scales {
		d := 2 * k
		if d < 32 {
			d = 32
		}
		cells[i] = sweepCell{label: fmt.Sprintf("E4a/k=%d", k), factory: factory, k: k, d: d, trials: trials}
	}
	sweep, err := runSweep(ctx, cfg, cells)
	if err != nil {
		return nil, err
	}
	var ratios, normLog []float64
	for i, st := range sweep {
		k := cells[i].k
		ratio := st.MeanTime() / st.LowerBound()
		ratios = append(ratios, ratio)
		norm := ratio / log2Floor1(k)
		normLog = append(normLog, norm)
		tblA.MustAddRow(k, cells[i].d, ratio, norm, ratio/polylog(k, eps))
	}
	tblA.AddNote("trials per cell: %d; the middle column must drift upward (Theorem 4.1)", trials)
	out.Tables = append(out.Tables, tblA)

	growth := normLog[len(normLog)-1] / normLog[0]
	out.addFinding("ratio/log2(k) grows by a factor %.2f from k=%d to k=%d", growth, scales[0], maxK)
	out.addCheck("not-O(log k)", growth > 1.15,
		"ratio/log k grew by factor %.2f (a truly O(log k)-competitive algorithm would keep it flat)", growth)

	// Part B: the proof's per-agent coverage accounting.
	horizon := pick(cfg, 2000, 20000, 60000)
	covScales := pick(cfg, []int{2, 4, 8, 16}, []int{2, 4, 8, 16, 32, 64}, []int{2, 4, 8, 16, 32, 64, 128})
	covTrials := pick(cfg, 2, 3, 5)
	report, err := lowerbound.Measure(ctx, lowerbound.Config{
		Factory: factory,
		Scales:  covScales,
		Horizon: horizon,
		Trials:  covTrials,
		Seed:    cfg.Seed + 41,
		Workers: cfg.Workers,
	})
	if err != nil {
		return nil, fmt.Errorf("E4 coverage: %w", err)
	}
	tblB := table.New("E4b: per-agent distinct-node coverage within horizon 2T (proof mechanism)",
		"k", "per-agent distinct nodes", "per-agent / horizon", "overlap fraction")
	budgetOK := true
	for _, sr := range report.Scales {
		perAgent := sr.PerAgentDistinct.Mean
		tblB.MustAddRow(sr.K, perAgent, perAgent/float64(horizon), sr.Overlap)
		if perAgent > float64(horizon)+1 {
			budgetOK = false
		}
	}
	tblB.AddNote("horizon 2T = %d steps, treasure unreachable; an agent can never cover more nodes than it has steps", horizon)
	out.Tables = append(out.Tables, tblB)
	out.addCheck("coverage-within-budget", budgetOK,
		"per-agent distinct coverage never exceeds the step budget (the constraint the proof exploits)")

	// Divergence bookkeeping: the partial sums Σ 1/φ(2^i) of the measured
	// ratios stay bounded, whereas the same sums for a hypothetical
	// φ = c·log k keep growing with the number of scales.
	series := lowerbound.DivergenceSeries(ratios)
	ref := lowerbound.LogSeriesReference(scales, 1)
	tblC := table.New("E4c: partial sums Σ 1/φ(2^i) — measured uniform algorithm vs hypothetical c·log k",
		"scales included", "measured Σ 1/ratio", "hypothetical Σ 1/log k")
	for i := range series {
		tblC.MustAddRow(i+1, series[i], ref[i])
	}
	out.Tables = append(out.Tables, tblC)
	out.addFinding("measured Σ 1/ratio converges to %.3f while the hypothetical O(log k) series keeps growing (%.3f and rising)",
		series[len(series)-1], ref[len(ref)-1])
	out.addCheck("series-converges", series[len(series)-1] < ref[len(ref)-1]*3,
		"measured partial sum %.3f stays small, consistent with the required convergence", series[len(series)-1])
	return out, nil
}
