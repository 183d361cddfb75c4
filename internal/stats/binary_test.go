package stats

import (
	"encoding/binary"
	"math"
	"math/rand/v2"
	"reflect"
	"testing"
)

// TestAccumulatorBinaryRoundTrip pins the codec's core guarantee: a decoded
// accumulator is indistinguishable from the original — not just in its
// summary, but in how it behaves under further Adds and Merges.
func TestAccumulatorBinaryRoundTrip(t *testing.T) {
	t.Parallel()

	rng := rand.New(rand.NewPCG(7, 11))
	for _, n := range []int{0, 1, 5, DefaultSketchCap - 1, DefaultSketchCap, DefaultSketchCap + 100} {
		var a Accumulator
		for i := 0; i < n; i++ {
			a.Add(rng.NormFloat64() * 1e3)
		}
		var b Accumulator
		rest, err := b.DecodeBinary(a.AppendBinary(nil))
		if err != nil {
			t.Fatalf("n=%d: decode: %v", n, err)
		}
		if len(rest) != 0 {
			t.Fatalf("n=%d: %d undecoded bytes", n, len(rest))
		}
		// Continue both with the same suffix; every summary stat must stay
		// bit-identical, including under a further merge.
		var intoA, intoB Accumulator
		for i := 0; i < 50; i++ {
			x := rng.Float64()
			a.Add(x)
			b.Add(x)
		}
		intoA.Merge(a)
		intoB.Merge(b)
		for name, pair := range map[string][2]float64{
			"mean": {intoA.Mean(), intoB.Mean()},
			"var":  {intoA.Variance(), intoB.Variance()},
			"min":  {intoA.Min(), intoB.Min()},
			"max":  {intoA.Max(), intoB.Max()},
		} {
			if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
				t.Fatalf("n=%d: %s diverged after round trip: %v vs %v", n, name, pair[0], pair[1])
			}
		}
		if intoA.N() != intoB.N() {
			t.Fatalf("n=%d: N diverged: %d vs %d", n, intoA.N(), intoB.N())
		}
	}
}

func TestAccumulatorBinaryRoundTripsNonFinite(t *testing.T) {
	t.Parallel()

	var a Accumulator
	a.Add(math.Inf(1))
	a.Add(42)
	var b Accumulator
	if _, err := b.DecodeBinary(a.AppendBinary(nil)); err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(b.Max(), 1) || math.Float64bits(a.Mean()) != math.Float64bits(b.Mean()) {
		t.Fatalf("non-finite state lost: max=%v mean=%v", b.Max(), b.Mean())
	}
}

func TestAccumulatorDecodeRejectsDamage(t *testing.T) {
	t.Parallel()

	var a Accumulator
	for i := 0; i < 10; i++ {
		a.Add(float64(i))
	}
	good := a.AppendBinary(nil)
	cases := map[string][]byte{
		"empty":       nil,
		"bad version": append([]byte{accumulatorStateVersion + 1}, good[1:]...),
		"truncated":   good[:len(good)-3],
	}
	// A negative observation count must be rejected.
	negative := append([]byte(nil), good...)
	for i := 1; i <= 8; i++ {
		negative[i] = 0xff
	}
	cases["negative count"] = negative
	cases["version 1"] = append([]byte{1}, good[1:]...)
	for name, data := range cases {
		var b Accumulator
		if _, err := b.DecodeBinary(data); err == nil {
			t.Errorf("%s: decode accepted damaged state", name)
		}
	}
}

// TestSketchBinaryRoundTrip covers both exact and estimation mode: the
// decoded sketch must answer, merge and evolve bit-identically.
func TestSketchBinaryRoundTrip(t *testing.T) {
	t.Parallel()

	rng := rand.New(rand.NewPCG(3, 9))
	for _, n := range []int{0, 3, 100, DefaultSketchCap, DefaultSketchCap + 500} {
		a := NewSketch(0)
		for i := 0; i < n; i++ {
			a.Add(rng.ExpFloat64() * 100)
		}
		b := NewSketch(0)
		rest, err := b.DecodeBinary(a.AppendBinary(nil))
		if err != nil {
			t.Fatalf("n=%d: decode: %v", n, err)
		}
		if len(rest) != 0 {
			t.Fatalf("n=%d: %d undecoded bytes", n, len(rest))
		}
		if a.Exact() != b.Exact() || a.N() != b.N() {
			t.Fatalf("n=%d: mode or count diverged", n)
		}
		// Drive both through the same suffix — crossing the exact/estimation
		// boundary for the small cases — and compare summaries exactly.
		for i := 0; i < DefaultSketchCap+50; i++ {
			x := rng.Float64() * 10
			a.Add(x)
			b.Add(x)
		}
		sa, sb := a.Summary(), b.Summary()
		for _, q := range []float64{0, 0.05, 0.25, 0.5, 0.9, 0.99, 1} {
			if math.Float64bits(sa.Quantile(q)) != math.Float64bits(sb.Quantile(q)) {
				t.Fatalf("n=%d: q=%v diverged after round trip: %v vs %v", n, q, sa.Quantile(q), sb.Quantile(q))
			}
		}
		if !reflect.DeepEqual(sa, sb) {
			t.Fatalf("n=%d: summaries diverged after round trip", n)
		}
	}
}

func TestSketchDecodeRejectsDamage(t *testing.T) {
	t.Parallel()

	a := NewSketch(0)
	for i := 0; i < 2000; i++ {
		a.Add(float64(i % 37))
	}
	good := a.AppendBinary(nil)
	// An exact sketch whose cap and sample count are hostile: the count fits
	// under cap+1 but 8*count overflows to 8, which once slipped past the
	// length check into a makeslice panic. The count follows the version
	// byte, cap, n, min, max, and the length-prefixed tracked quantiles and
	// the mode byte.
	exact := NewSketch(0)
	for i := 0; i < 3; i++ {
		exact.Add(float64(i))
	}
	hostile := exact.AppendBinary(nil)
	off := 1 + 4*8 + 8 + 8*len(exact.tracked) + 1
	if got := binary.LittleEndian.Uint64(hostile[off:]); got != 3 {
		t.Fatalf("sample count at offset %d reads %d, want 3", off, got)
	}
	binary.LittleEndian.PutUint64(hostile[1:], 1<<62)
	binary.LittleEndian.PutUint64(hostile[off:], 1<<61+1)
	inconsistent := exact.AppendBinary(nil)
	binary.LittleEndian.PutUint64(inconsistent[1+8:], 5) // n=5 over 3 samples
	for name, data := range map[string][]byte{
		"empty":          nil,
		"bad version":    append([]byte{sketchStateVersion + 1}, good[1:]...),
		"truncated":      good[:len(good)/2],
		"hostile count":  hostile,
		"n over samples": inconsistent,
	} {
		b := NewSketch(0)
		if _, err := b.DecodeBinary(data); err == nil {
			t.Errorf("%s: decode accepted damaged state", name)
		}
	}
}
