// Package stats provides the small statistical toolkit the experiment
// harness needs: streaming mean/variance accumulation (Welford), normal
// confidence intervals, order statistics, simple linear regression for
// fitting growth exponents on log-log data, and histograms.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Accumulator computes running mean and variance using Welford's method. The
// zero value is ready to use.
//
//antlint:codec version=accumulatorStateVersion fields=n,mean,m2,min,max encode=AppendBinary decode=DecodeBinary
type Accumulator struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add incorporates one observation.
func (a *Accumulator) Add(x float64) {
	a.n++
	if a.n == 1 {
		a.min, a.max = x, x
	} else {
		a.min = math.Min(a.min, x)
		a.max = math.Max(a.max, x)
	}
	delta := x - a.mean
	a.mean += delta / float64(a.n)
	a.m2 += delta * (x - a.mean)
}

// N returns the number of observations.
func (a *Accumulator) N() int { return a.n }

// Mean returns the sample mean (0 for an empty accumulator).
func (a *Accumulator) Mean() float64 { return a.mean }

// Min returns the smallest observation (0 for an empty accumulator).
func (a *Accumulator) Min() float64 { return a.min }

// Max returns the largest observation (0 for an empty accumulator).
func (a *Accumulator) Max() float64 { return a.max }

// Variance returns the unbiased sample variance (0 with fewer than two
// observations).
func (a *Accumulator) Variance() float64 {
	if a.n < 2 {
		return 0
	}
	return a.m2 / float64(a.n-1)
}

// StdDev returns the sample standard deviation.
func (a *Accumulator) StdDev() float64 { return math.Sqrt(a.Variance()) }

// Merge folds another accumulator into a, as if every observation added to b
// had been added to a, using Chan et al.'s parallel variance update. Counts
// and extremes are exact. The merge is deterministic — folding the same
// accumulators in the same order always yields the same result — but the mean
// and variance carry floating-point merge error that depends on where the
// stream was split, so a partitioned fold can differ from sequential Add in
// the last bits. Callers that need the sequential result fold with Add.
func (a *Accumulator) Merge(b Accumulator) {
	if b.n == 0 {
		return
	}
	if a.n == 0 {
		*a = b
		return
	}
	na, nb := float64(a.n), float64(b.n)
	n := na + nb
	delta := b.mean - a.mean
	a.m2 += b.m2 + delta*delta*na*nb/n
	a.mean += delta * nb / n
	a.n += b.n
	a.min = math.Min(a.min, b.min)
	a.max = math.Max(a.max, b.max)
}

// StdErr returns the standard error of the mean.
func (a *Accumulator) StdErr() float64 {
	if a.n == 0 {
		return 0
	}
	return a.StdDev() / math.Sqrt(float64(a.n))
}

// ConfidenceInterval95 returns the half-width of the normal-approximation 95%
// confidence interval for the mean.
func (a *Accumulator) ConfidenceInterval95() float64 {
	return 1.96 * a.StdErr()
}

// Summary is an immutable snapshot of an accumulator, convenient to embed in
// experiment results.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	Min    float64
	Max    float64
	CI95   float64
}

// Summarize snapshots the accumulator.
func (a *Accumulator) Summarize() Summary {
	return Summary{
		N:      a.n,
		Mean:   a.Mean(),
		StdDev: a.StdDev(),
		Min:    a.Min(),
		Max:    a.Max(),
		CI95:   a.ConfidenceInterval95(),
	}
}

// String implements fmt.Stringer.
func (s Summary) String() string {
	return fmt.Sprintf("mean=%.3g ±%.2g (n=%d, sd=%.3g, range [%.3g, %.3g])",
		s.Mean, s.CI95, s.N, s.StdDev, s.Min, s.Max)
}

// Quantile returns the q-quantile (0 <= q <= 1) of the data using linear
// interpolation between order statistics. It returns 0 for an empty slice.
// The input is not modified.
func Quantile(data []float64, q float64) float64 {
	if len(data) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	sorted := append([]float64(nil), data...)
	sort.Float64s(sorted)
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Median returns the 0.5-quantile.
func Median(data []float64) float64 { return Quantile(data, 0.5) }

// Mean returns the arithmetic mean of the slice (0 for an empty slice).
func Mean(data []float64) float64 {
	if len(data) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range data {
		sum += v
	}
	return sum / float64(len(data))
}

// LinearFit fits y = intercept + slope·x by least squares. It returns an
// error if fewer than two points are supplied or the x values are all equal.
func LinearFit(xs, ys []float64) (slope, intercept float64, err error) {
	if len(xs) != len(ys) {
		return 0, 0, fmt.Errorf("stats: mismatched lengths %d and %d", len(xs), len(ys))
	}
	if len(xs) < 2 {
		return 0, 0, fmt.Errorf("stats: need at least 2 points, got %d", len(xs))
	}
	n := float64(len(xs))
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	denom := n*sxx - sx*sx
	if denom == 0 {
		return 0, 0, fmt.Errorf("stats: degenerate x values")
	}
	slope = (n*sxy - sx*sy) / denom
	intercept = (sy - slope*sx) / n
	return slope, intercept, nil
}

// LogLogSlope fits the exponent p of a power law y ≈ c·x^p from positive
// samples by regressing log y on log x. Points with non-positive coordinates
// are skipped; an error is returned if fewer than two usable points remain.
func LogLogSlope(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, fmt.Errorf("stats: mismatched lengths %d and %d", len(xs), len(ys))
	}
	var lx, ly []float64
	for i := range xs {
		if xs[i] > 0 && ys[i] > 0 {
			lx = append(lx, math.Log(xs[i]))
			ly = append(ly, math.Log(ys[i]))
		}
	}
	slope, _, err := LinearFit(lx, ly)
	if err != nil {
		return 0, fmt.Errorf("stats: log-log fit: %w", err)
	}
	return slope, nil
}

// Histogram is a fixed-bin histogram over [Lo, Hi); observations outside the
// range are clamped into the first or last bin.
type Histogram struct {
	Lo, Hi float64
	Counts []int
	total  int
}

// NewHistogram returns a histogram with the given number of bins over
// [lo, hi). It returns an error for invalid ranges or a non-positive number
// of bins.
func NewHistogram(lo, hi float64, bins int) (*Histogram, error) {
	if bins <= 0 {
		return nil, fmt.Errorf("stats: number of bins must be positive, got %d", bins)
	}
	if !(lo < hi) {
		return nil, fmt.Errorf("stats: invalid histogram range [%v, %v)", lo, hi)
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int, bins)}, nil
}

// Add incorporates one observation.
func (h *Histogram) Add(x float64) {
	bins := len(h.Counts)
	idx := int(float64(bins) * (x - h.Lo) / (h.Hi - h.Lo))
	if idx < 0 {
		idx = 0
	}
	if idx >= bins {
		idx = bins - 1
	}
	h.Counts[idx]++
	h.total++
}

// Total returns the number of observations added.
func (h *Histogram) Total() int { return h.total }

// Fraction returns the fraction of observations in bin i.
func (h *Histogram) Fraction(i int) float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.Counts[i]) / float64(h.total)
}

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	width := (h.Hi - h.Lo) / float64(len(h.Counts))
	return h.Lo + width*(float64(i)+0.5)
}
