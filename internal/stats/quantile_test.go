package stats

import (
	"math"
	"reflect"
	"testing"
)

// lcg is a tiny deterministic generator so the tests do not depend on any
// seeding behaviour outside this package.
type lcg uint64

func (g *lcg) next() float64 {
	*g = *g*6364136223846793005 + 1442695040888963407
	return float64(*g>>11) / float64(1<<53)
}

func TestP2Validation(t *testing.T) {
	t.Parallel()

	for _, q := range []float64{-0.1, 0, 1, 1.5} {
		if _, err := NewP2(q); err == nil {
			t.Errorf("NewP2(%v) should fail", q)
		}
	}
	if _, err := NewP2(0.5); err != nil {
		t.Fatal(err)
	}
}

func TestP2SmallStreamsAreExact(t *testing.T) {
	t.Parallel()

	p, err := NewP2(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if p.Value() != 0 {
		t.Errorf("empty estimator value = %v, want 0", p.Value())
	}
	for _, x := range []float64{5, 1, 3} {
		p.Add(x)
	}
	if got := p.Value(); got != 3 {
		t.Errorf("median of {5,1,3} = %v, want 3", got)
	}
}

func TestP2ApproximatesQuantiles(t *testing.T) {
	t.Parallel()

	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		p, err := NewP2(q)
		if err != nil {
			t.Fatal(err)
		}
		// Uniform [0, 1): the q-quantile is q itself.
		g := lcg(7)
		for i := 0; i < 50000; i++ {
			p.Add(g.next())
		}
		if got := p.Value(); math.Abs(got-q) > 0.02 {
			t.Errorf("P2(%v) over U[0,1) = %v, want within 0.02 of %v", q, got, q)
		}
	}
}

func TestSketchExactModeMatchesQuantile(t *testing.T) {
	t.Parallel()

	s := NewSketch(128)
	var data []float64
	g := lcg(3)
	for i := 0; i < 100; i++ {
		x := g.next() * 1000
		data = append(data, x)
		s.Add(x)
	}
	if !s.Exact() {
		t.Fatal("100 observations with cap 128 should stay exact")
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.77, 1} {
		if got, want := s.Quantile(q), Quantile(data, q); got != want {
			t.Errorf("Quantile(%v) = %v, want exact %v", q, got, want)
		}
	}
	sum := s.Summary()
	if sum.N != 100 || !sum.Exact {
		t.Errorf("summary N=%d exact=%v, want 100/true", sum.N, sum.Exact)
	}
}

func TestSketchEstimationModeAccuracy(t *testing.T) {
	t.Parallel()

	s := NewSketch(256)
	g := lcg(11)
	const n = 40000
	for i := 0; i < n; i++ {
		s.Add(g.next())
	}
	if s.Exact() {
		t.Fatal("sketch should have left exact mode")
	}
	if s.N() != n {
		t.Fatalf("N = %d, want %d", s.N(), n)
	}
	for _, q := range []float64{0.1, 0.5, 0.9} {
		if got := s.Quantile(q); math.Abs(got-q) > 0.03 {
			t.Errorf("estimated Quantile(%v) = %v, want within 0.03", q, got)
		}
	}
	// Min and max stay exact in estimation mode.
	sum := s.Summary()
	if sum.Min < 0 || sum.Min > 0.001 || sum.Max > 1 || sum.Max < 0.999 {
		t.Errorf("min/max = %v/%v, want near 0/1", sum.Min, sum.Max)
	}
}

func TestSketchMergeExactIsConcatenation(t *testing.T) {
	t.Parallel()

	full := NewSketch(512)
	a, b := NewSketch(512), NewSketch(512)
	g := lcg(5)
	for i := 0; i < 300; i++ {
		x := g.next()
		full.Add(x)
		if i < 120 {
			a.Add(x)
		} else {
			b.Add(x)
		}
	}
	a.Merge(b)
	if a.N() != full.N() {
		t.Fatalf("merged N = %d, want %d", a.N(), full.N())
	}
	for _, q := range []float64{0.05, 0.5, 0.95} {
		if got, want := a.Quantile(q), full.Quantile(q); got != want {
			t.Errorf("merged Quantile(%v) = %v, want %v", q, got, want)
		}
	}
}

func TestSketchMergeMixedModes(t *testing.T) {
	t.Parallel()

	// Shard-style usage: many exact shards merged into an estimating total.
	g := lcg(13)
	const shards, perShard = 40, 500
	total := NewSketch(1024)
	var exactMedianData []float64
	for s := 0; s < shards; s++ {
		sh := NewSketch(1024)
		for i := 0; i < perShard; i++ {
			x := g.next()
			sh.Add(x)
			exactMedianData = append(exactMedianData, x)
		}
		total.Merge(sh)
	}
	if total.N() != shards*perShard {
		t.Fatalf("N = %d, want %d", total.N(), shards*perShard)
	}
	want := Median(exactMedianData)
	if got := total.Quantile(0.5); math.Abs(got-want) > 0.03 {
		t.Errorf("merged median = %v, want within 0.03 of %v", got, want)
	}
}

func TestSketchMergeDeterministic(t *testing.T) {
	t.Parallel()

	build := func() *Sketch {
		g := lcg(17)
		total := NewSketch(64)
		for s := 0; s < 10; s++ {
			sh := NewSketch(64)
			for i := 0; i < 100; i++ {
				sh.Add(g.next())
			}
			total.Merge(sh)
		}
		return total
	}
	a, b := build(), build()
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		if a.Quantile(q) != b.Quantile(q) {
			t.Errorf("merge is not deterministic at q=%v: %v vs %v", q, a.Quantile(q), b.Quantile(q))
		}
	}
}

func TestQuantileSummaryEmpty(t *testing.T) {
	t.Parallel()

	var sum QuantileSummary
	if sum.Quantile(0.5) != 0 || sum.Median() != 0 {
		t.Error("empty summary should answer 0")
	}
}

func TestAccumulatorMergeMatchesSequential(t *testing.T) {
	t.Parallel()

	g := lcg(23)
	var data []float64
	for i := 0; i < 1000; i++ {
		data = append(data, g.next()*100)
	}

	var seq Accumulator
	for _, x := range data {
		seq.Add(x)
	}

	// Merges use the summary formula: counts and extremes are exact, means
	// and variances agree within floating-point merge error, for singleton
	// and batched parts alike.
	for _, size := range []int{1, 64} {
		var batched Accumulator
		for lo := 0; lo < len(data); lo += size {
			hi := min(lo+size, len(data))
			var part Accumulator
			for _, x := range data[lo:hi] {
				part.Add(x)
			}
			batched.Merge(part)
		}
		if batched.N() != seq.N() || batched.Min() != seq.Min() || batched.Max() != seq.Max() {
			t.Errorf("size %d: merge counts/extremes differ: %+v vs %+v", size, batched, seq)
		}
		if math.Abs(batched.Mean()-seq.Mean()) > 1e-9*math.Abs(seq.Mean()) {
			t.Errorf("size %d: merged mean %v differs from sequential %v", size, batched.Mean(), seq.Mean())
		}
		if math.Abs(batched.Variance()-seq.Variance()) > 1e-9*seq.Variance() {
			t.Errorf("size %d: merged variance %v differs from sequential %v", size, batched.Variance(), seq.Variance())
		}
	}

	// Merging into an empty accumulator copies.
	var empty Accumulator
	empty.Merge(seq)
	if !reflect.DeepEqual(empty, seq) {
		t.Error("merging into an empty accumulator should copy")
	}
	before := seq
	seq.Merge(Accumulator{})
	if !reflect.DeepEqual(seq, before) {
		t.Error("merging an empty accumulator should be a no-op")
	}
}
