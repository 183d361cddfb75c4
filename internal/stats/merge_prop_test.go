package stats

// Property tests for the merges: any partition of an observation sequence
// into contiguous runs of at most DefaultSketchCap observations, sketched
// separately and merged back in stream order, must reproduce the sequential
// sketch state bit for bit; an Accumulator merged across a long stream keeps
// its counts and extremes exact and its mean within rounding.

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// randomStream produces a deterministic pseudo-random observation sequence.
// Roughly half the values are small integers (duplicate-heavy, the regime
// where P² estimators are most order-sensitive), the rest continuous.
func randomStream(rng *rand.Rand, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		if rng.Intn(2) == 0 {
			xs[i] = float64(rng.Intn(20))
		} else {
			xs[i] = rng.NormFloat64() * 100
		}
	}
	return xs
}

// randomPartition splits [0, n) into contiguous runs of 1..maxRun elements.
func randomPartition(rng *rand.Rand, n, maxRun int) [][2]int {
	var runs [][2]int
	for lo := 0; lo < n; {
		hi := lo + 1 + rng.Intn(maxRun)
		if hi > n {
			hi = n
		}
		runs = append(runs, [2]int{lo, hi})
		lo = hi
	}
	return runs
}

func TestSketchPartitionInvariance(t *testing.T) {
	t.Parallel()

	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 5, 100, DefaultSketchCap, DefaultSketchCap + 1, 3000} {
		xs := randomStream(rng, n)
		seq := NewSketch(0)
		for _, x := range xs {
			seq.Add(x)
		}
		for round := 0; round < 20; round++ {
			merged := NewSketch(0)
			for _, run := range randomPartition(rng, n, DefaultSketchCap) {
				shard := NewSketch(0)
				for _, x := range xs[run[0]:run[1]] {
					shard.Add(x)
				}
				merged.Merge(shard)
			}
			if !reflect.DeepEqual(merged, seq) {
				t.Fatalf("n=%d round=%d: merged sketch state differs from sequential", n, round)
			}
			if !reflect.DeepEqual(merged.Summary(), seq.Summary()) {
				t.Fatalf("n=%d round=%d: summaries differ:\nmerged %+v\nseq    %+v",
					n, round, merged.Summary(), seq.Summary())
			}
		}
	}
}

// TestAccumulatorMergeBeyondReplayWindow pins the summary-formula merge on
// streams longer than a sketch's exact window: counts and extremes stay exact
// and the mean stays within floating-point merge error of the sequential
// fold.
func TestAccumulatorMergeBeyondReplayWindow(t *testing.T) {
	t.Parallel()

	rng := rand.New(rand.NewSource(3))
	n := 2*DefaultSketchCap + 17
	xs := randomStream(rng, n)
	var seq Accumulator
	for _, x := range xs {
		seq.Add(x)
	}
	var big Accumulator // one oversized shard: log incomplete
	for _, x := range xs[:DefaultSketchCap+1] {
		big.Add(x)
	}
	var merged Accumulator
	for _, x := range xs[DefaultSketchCap+1:] {
		merged.Add(x)
	}
	big.Merge(merged)
	if big.N() != seq.N() || big.Min() != seq.Min() || big.Max() != seq.Max() {
		t.Errorf("counts/extremes differ: got (%d, %v, %v), want (%d, %v, %v)",
			big.N(), big.Min(), big.Max(), seq.N(), seq.Min(), seq.Max())
	}
	if rel := math.Abs(big.Mean()-seq.Mean()) / math.Max(1, math.Abs(seq.Mean())); rel > 1e-9 {
		t.Errorf("merged mean %v too far from sequential %v", big.Mean(), seq.Mean())
	}
}
