package xrand

import (
	"math"
	"testing"
	"testing/quick"

	"antsearch/internal/grid"
)

func TestDeriveSeedDeterministic(t *testing.T) {
	t.Parallel()

	if DeriveSeed(1, 2, 3) != DeriveSeed(1, 2, 3) {
		t.Error("DeriveSeed is not deterministic")
	}
	if DeriveSeed(1, 2, 3) == DeriveSeed(1, 3, 2) {
		t.Error("DeriveSeed should depend on path order")
	}
	if DeriveSeed(1) == DeriveSeed(2) {
		t.Error("DeriveSeed should depend on the base seed")
	}
	if DeriveSeed(1, 0) == DeriveSeed(1) {
		t.Error("DeriveSeed should distinguish an empty path from path {0}")
	}
}

func TestStreamReproducible(t *testing.T) {
	t.Parallel()

	a := NewStream(99, 1, 2)
	b := NewStream(99, 1, 2)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with identical seeds diverged at step %d", i)
		}
	}

	c := NewStream(99, 1, 3)
	same := 0
	d := NewStream(99, 1, 2)
	for i := 0; i < 100; i++ {
		if c.Uint64() == d.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("streams with different paths agree on %d/100 outputs", same)
	}
}

func TestIntNRange(t *testing.T) {
	t.Parallel()

	s := NewStream(7)
	counts := make([]int, 5)
	for i := 0; i < 5000; i++ {
		v := s.IntN(5)
		if v < 0 || v >= 5 {
			t.Fatalf("IntN(5) = %d out of range", v)
		}
		counts[v]++
	}
	for v, c := range counts {
		if c < 800 || c > 1200 {
			t.Errorf("value %d drawn %d times out of 5000; far from uniform", v, c)
		}
	}
}

func TestBernoulli(t *testing.T) {
	t.Parallel()

	s := NewStream(11)
	if s.Bernoulli(0) {
		t.Error("Bernoulli(0) returned true")
	}
	if !s.Bernoulli(1) {
		t.Error("Bernoulli(1) returned false")
	}
	if s.Bernoulli(-0.5) {
		t.Error("Bernoulli(-0.5) returned true")
	}
	if !s.Bernoulli(1.5) {
		t.Error("Bernoulli(1.5) returned false")
	}
	hits := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if s.Bernoulli(0.3) {
			hits++
		}
	}
	frac := float64(hits) / n
	if frac < 0.27 || frac > 0.33 {
		t.Errorf("Bernoulli(0.3) empirical rate %.3f", frac)
	}
}

func TestGeometricTrials(t *testing.T) {
	t.Parallel()

	s := NewStream(13)
	if got := s.GeometricTrials(1); got != 1 {
		t.Errorf("GeometricTrials(1) = %d, want 1", got)
	}
	const p = 0.25
	const n = 20000
	sum := 0
	for i := 0; i < n; i++ {
		v := s.GeometricTrials(p)
		if v < 1 {
			t.Fatalf("GeometricTrials returned %d < 1", v)
		}
		sum += v
	}
	mean := float64(sum) / n
	if mean < 3.6 || mean > 4.4 {
		t.Errorf("GeometricTrials(0.25) mean = %.2f, want ≈ 4", mean)
	}

	assertPanics(t, "p = 0", func() { s.GeometricTrials(0) })
	assertPanics(t, "p > 1", func() { s.GeometricTrials(1.5) })
}

func TestDirectionUniform(t *testing.T) {
	t.Parallel()

	s := NewStream(17)
	counts := make(map[grid.Direction]int)
	const n = 8000
	for i := 0; i < n; i++ {
		d := s.Direction()
		if !d.Valid() {
			t.Fatalf("invalid direction %v", d)
		}
		counts[d]++
	}
	if len(counts) != 4 {
		t.Fatalf("only %d directions produced", len(counts))
	}
	for d, c := range counts {
		if c < n/4-300 || c > n/4+300 {
			t.Errorf("direction %v drawn %d times, far from %d", d, c, n/4)
		}
	}
}

func TestUniformBallPoint(t *testing.T) {
	t.Parallel()

	s := NewStream(19)
	const radius = 4
	counts := make(map[grid.Point]int)
	const n = 26000 // 41 nodes in B(4); ≈ 634 samples per node.
	for i := 0; i < n; i++ {
		p := s.UniformBallPoint(radius)
		if p.L1() > radius {
			t.Fatalf("sampled point %v outside ball of radius %d", p, radius)
		}
		counts[p]++
	}
	if len(counts) != grid.BallSize(radius) {
		t.Errorf("sampled %d distinct nodes, want %d", len(counts), grid.BallSize(radius))
	}
	expected := float64(n) / float64(grid.BallSize(radius))
	for p, c := range counts {
		if float64(c) < 0.6*expected || float64(c) > 1.4*expected {
			t.Errorf("node %v sampled %d times, expected ≈ %.0f", p, c, expected)
		}
	}
	assertPanics(t, "negative radius", func() { s.UniformBallPoint(-1) })
}

func TestUniformRingPoint(t *testing.T) {
	t.Parallel()

	s := NewStream(23)
	if got := s.UniformRingPoint(0); got != grid.Origin {
		t.Errorf("UniformRingPoint(0) = %v, want origin", got)
	}
	for i := 0; i < 2000; i++ {
		r := 1 + s.IntN(50)
		p := s.UniformRingPoint(r)
		if p.L1() != r {
			t.Fatalf("UniformRingPoint(%d) = %v with L1 %d", r, p, p.L1())
		}
	}
	assertPanics(t, "negative radius", func() { s.UniformRingPoint(-2) })
}

func TestPowerLawRadiusDistribution(t *testing.T) {
	t.Parallel()

	s := NewStream(29)
	const delta = 0.5
	const n = 60000
	counts := make(map[int]int)
	for i := 0; i < n; i++ {
		r := s.PowerLawRadius(delta)
		if r < 1 {
			t.Fatalf("PowerLawRadius returned %d < 1", r)
		}
		counts[r]++
	}
	// Compare the empirical mass of small radii against the exact values
	// r^-(1+δ)/ζ(1+δ).
	z := Zeta(1 + delta)
	for r := 1; r <= 4; r++ {
		want := math.Pow(float64(r), -(1+delta)) / z
		got := float64(counts[r]) / n
		if math.Abs(got-want) > 0.02 {
			t.Errorf("P(radius=%d) = %.4f, want ≈ %.4f", r, got, want)
		}
	}
	assertPanics(t, "delta <= 0", func() { s.PowerLawRadius(0) })
}

func TestPowerLawRadiusTailExponent(t *testing.T) {
	t.Parallel()

	// The survival function obeys P(R > r) ≈ r^-δ / (δ·ζ(1+δ)) for large r,
	// so the tail ratio P(R > 2r)/P(R > r) should be close to 2^-δ.
	s := NewStream(31)
	const delta = 0.8
	const n = 80000
	var over20, over40 int
	for i := 0; i < n; i++ {
		r := s.PowerLawRadius(delta)
		if r > 20 {
			over20++
		}
		if r > 40 {
			over40++
		}
	}
	if over20 < 200 {
		t.Skipf("not enough tail mass to test ratio (over20=%d)", over20)
	}
	ratio := float64(over40) / float64(over20)
	want := math.Pow(2, -delta)
	if math.Abs(ratio-want) > 0.12 {
		t.Errorf("tail ratio = %.3f, want ≈ %.3f", ratio, want)
	}
}

func TestHarmonicPointDistribution(t *testing.T) {
	t.Parallel()

	s := NewStream(37)
	const delta = 0.6
	const n = 50000
	pl := NewPowerLaw(delta)
	counts := make(map[grid.Point]int)
	for i := 0; i < n; i++ {
		p := s.HarmonicPoint(pl)
		if p == grid.Origin {
			t.Fatal("harmonic sample hit the origin; distribution excludes the source")
		}
		counts[p]++
	}
	// Check the four distance-1 nodes: each should have probability
	// c/1^(2+δ) = c where c = 1/(4ζ(1+δ)).
	c := HarmonicNormalizer(delta)
	for _, p := range []grid.Point{{X: 1}, {X: -1}, {Y: 1}, {Y: -1}} {
		got := float64(counts[p]) / n
		if math.Abs(got-c) > 0.02 {
			t.Errorf("P(%v) = %.4f, want ≈ %.4f", p, got, c)
		}
	}
	// Nodes on the same ring must have (roughly) identical probabilities.
	ring2 := []grid.Point{{X: 2}, {X: 1, Y: 1}, {Y: 2}, {X: -1, Y: 1}}
	base := counts[ring2[0]]
	for _, p := range ring2[1:] {
		diff := math.Abs(float64(counts[p]-base)) / n
		if diff > 0.02 {
			t.Errorf("ring-2 nodes have asymmetric mass: %v=%d vs %v=%d",
				ring2[0], base, p, counts[p])
		}
	}
}

func TestZeta(t *testing.T) {
	t.Parallel()

	tests := []struct {
		x    float64
		want float64
	}{
		{2, math.Pi * math.Pi / 6},
		{4, math.Pow(math.Pi, 4) / 90},
		{1.5, 2.612375},
		{3, 1.202057},
	}
	for _, tc := range tests {
		if got := Zeta(tc.x); math.Abs(got-tc.want) > 1e-3 {
			t.Errorf("Zeta(%.2f) = %.6f, want %.6f", tc.x, got, tc.want)
		}
	}
	if !math.IsInf(Zeta(1), 1) {
		t.Error("Zeta(1) should be +Inf")
	}
	if !math.IsInf(Zeta(0.5), 1) {
		t.Error("Zeta(0.5) should be +Inf")
	}
}

func TestHarmonicNormalizer(t *testing.T) {
	t.Parallel()

	// Direct summation over a large ball should approach the closed form.
	const delta = 0.7
	sum := 0.0
	for r := 1; r <= 20000; r++ {
		sum += float64(grid.RingSize(r)) * math.Pow(float64(r), -(2+delta))
	}
	direct := 1 / sum
	if got := HarmonicNormalizer(delta); math.Abs(got-direct)/direct > 0.02 {
		t.Errorf("HarmonicNormalizer(%.1f) = %.5f, direct sum gives %.5f", delta, got, direct)
	}
}

func TestFloatSamplersSanity(t *testing.T) {
	t.Parallel()

	s := NewStream(41)
	var sumExp, sumNorm float64
	const n = 20000
	for i := 0; i < n; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
		sumExp += s.ExpFloat64()
		sumNorm += s.NormFloat64()
	}
	if m := sumExp / n; m < 0.9 || m > 1.1 {
		t.Errorf("ExpFloat64 mean = %.3f, want ≈ 1", m)
	}
	if m := sumNorm / n; math.Abs(m) > 0.05 {
		t.Errorf("NormFloat64 mean = %.3f, want ≈ 0", m)
	}
}

func TestPermIsPermutation(t *testing.T) {
	t.Parallel()

	f := func(seed uint64) bool {
		s := NewStream(seed)
		perm := s.Perm(20)
		seen := make([]bool, 20)
		for _, v := range perm {
			if v < 0 || v >= 20 || seen[v] {
				return false
			}
			seen[v] = true
		}
		return len(perm) == 20
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Errorf("Perm property failed: %v", err)
	}
}

func assertPanics(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	fn()
}
