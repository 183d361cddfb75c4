package stats

import (
	"bytes"
	"math/rand/v2"
	"testing"
)

// FuzzAccumulatorDecodeBinary checks the Accumulator state codec at its
// trust boundary: every input is either rejected or decodes to a state that
// re-encodes to exactly the bytes consumed and summarizes without panicking.
// The seeds are encoded folds of 0, 1, 100 and 1500 observations.
func FuzzAccumulatorDecodeBinary(f *testing.F) {
	rng := rand.New(rand.NewPCG(1, 2))
	for _, n := range []int{0, 1, 100, 1500} {
		var a Accumulator
		for i := 0; i < n; i++ {
			a.Add(rng.ExpFloat64() * 100)
		}
		f.Add(a.AppendBinary(nil))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var a Accumulator
		rest, err := a.DecodeBinary(data)
		if err != nil {
			return
		}
		consumed := data[:len(data)-len(rest)]
		if got := a.AppendBinary(nil); !bytes.Equal(got, consumed) {
			t.Fatalf("re-encoding differs from the decoded bytes:\n got %x\nwant %x", got, consumed)
		}
		a.Summarize()
	})
}
