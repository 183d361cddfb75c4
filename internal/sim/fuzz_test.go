package sim

import (
	"bytes"
	"math/rand/v2"
	"testing"
)

// FuzzTrialAccumulatorUnmarshalBinary checks the checkpoint state codec at
// its trust boundary: every input is either rejected or decodes to a state
// that re-marshals byte-identically and answers Stats without panicking. The
// seeds are marshalled folds of 0, 1, 100 and 1500 trials, so both the exact
// and the P² modes of the quantile sketches are covered.
func FuzzTrialAccumulatorUnmarshalBinary(f *testing.F) {
	rng := rand.New(rand.NewPCG(3, 4))
	for _, trials := range []int{0, 1, 100, 1500} {
		a := NewTrialAccumulator(4, 8)
		for i := 0; i < trials; i++ {
			found := rng.Float64() < 0.9
			a.Add(Result{
				Found: found, Capped: !found,
				Time:      1 + rng.IntN(500),
				Survivors: 1 + rng.IntN(4), Distance: 8, LowerBound: 24,
			})
		}
		data, err := a.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		a := new(TrialAccumulator)
		if err := a.UnmarshalBinary(data); err != nil {
			return
		}
		got, err := a.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("re-marshalled state differs from the input:\n got %x\nwant %x", got, data)
		}
		a.Stats()
	})
}
