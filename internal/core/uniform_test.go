package core

import (
	"math"
	"sync"
	"testing"

	"antsearch/internal/agent"
	"antsearch/internal/grid"
	"antsearch/internal/trajectory"
	"antsearch/internal/xrand"
)

// closedFormShape evaluates Algorithm 1's sortie shape directly from the
// paper's formulas, independently of uniformShapeAt:
// D_{i,j} = sqrt(2^(i+j) / max(j,1)^(1+ε)), t_{i,j} = 2^(i+2) / max(j,1)^(1+ε).
func closedFormShape(i, j int, epsilon float64) uniformShape {
	jEff := float64(j)
	if jEff < 1 {
		jEff = 1
	}
	denom := math.Pow(jEff, 1+epsilon)
	radius := clampRadius(math.Sqrt(math.Pow(2, float64(i+j)) / denom))
	steps := clampSteps(math.Pow(2, float64(i+2)) / denom)
	return uniformShape{
		radius:    radius,
		ballSize:  2*radius*radius + 2*radius + 1,
		steps:     steps,
		spiralEnd: trajectory.NewSpiralSearch(grid.Origin, steps).End(),
	}
}

// TestUniformScheduleTableMatchesClosedForm checks every precomputed entry,
// and the on-the-fly rows just past the table, against the closed form.
func TestUniformScheduleTableMatchesClosedForm(t *testing.T) {
	t.Parallel()

	for _, eps := range []float64{0.1, 0.5, 1} {
		table := MustUniform(eps).schedule()
		for i := 0; i < uniformTableStages; i++ {
			for j := 0; j <= i; j++ {
				if got, want := table[i*(i+1)/2+j], closedFormShape(i, j, eps); got != want {
					t.Errorf("eps=%v (i=%d, j=%d): table %+v, closed form %+v", eps, i, j, got, want)
				}
			}
		}
		for i := uniformTableStages; i < uniformTableStages+3; i++ {
			for j := 0; j <= i; j++ {
				if got, want := uniformShapeAt(i, j, eps), closedFormShape(i, j, eps); got != want {
					t.Errorf("eps=%v (i=%d, j=%d): past the table %+v, closed form %+v", eps, i, j, got, want)
				}
			}
		}
	}
}

// TestUniformSortiesAcrossTableEdge drives a searcher from the table's last
// stage into the computed stages and checks every sortie's shape and the
// random draw of its target.
func TestUniformSortiesAcrossTableEdge(t *testing.T) {
	t.Parallel()

	const eps = 0.5
	alg := MustUniform(eps)
	var rng, ref xrand.Stream
	rng.Reset(7, 0)
	ref.Reset(7, 0)
	s := alg.NewSearcher(&rng, 0).(*uniformSearcher)
	// Resume just before stage uniformTableStages-1 of a big-stage long
	// enough to run two stages past the table.
	s.ell, s.i, s.j = uniformTableStages+1, uniformTableStages-2, uniformTableStages-2
	for i := uniformTableStages - 1; i <= uniformTableStages+1; i++ {
		for j := 0; j <= i; j++ {
			so, ok := s.nextSortie()
			if !ok || s.i != i || s.j != j {
				t.Fatalf("sortie at (%d, %d), want (%d, %d)", s.i, s.j, i, j)
			}
			want := closedFormShape(i, j, eps)
			if target := ref.UniformBallPoint(want.radius); so.target != target {
				t.Errorf("(i=%d, j=%d): target %v, want %v", i, j, so.target, target)
			}
			if so.spiralSteps != want.steps || so.spiralEnd != want.spiralEnd {
				t.Errorf("(i=%d, j=%d): spiral (%d, %v), want (%d, %v)",
					i, j, so.spiralSteps, so.spiralEnd, want.steps, want.spiralEnd)
			}
		}
	}
}

// TestUniformTableIsLazy pins that a Uniform builds its schedule table only
// when it makes a searcher: expanding a sweep grid constructs uniform
// factories even when every cell is answered from a cache.
func TestUniformTableIsLazy(t *testing.T) {
	t.Parallel()

	factory, err := UniformFactory(0.5)
	if err != nil {
		t.Fatal(err)
	}
	alg := factory(16).(*Uniform)
	_ = alg.Name()
	_ = alg.Epsilon()
	if alg.table != nil {
		t.Fatal("table built before any searcher was made")
	}
	var rng xrand.Stream
	rng.Reset(1, 0)
	s := alg.NewSearcher(&rng, 0).(*uniformSearcher)
	if alg.table == nil || s.table != alg.table {
		t.Fatal("NewSearcher did not build and share the table")
	}

	fresh := MustUniform(0.5)
	if fresh.ReuseSearcher(s, &rng, 0).(*uniformSearcher).table != fresh.schedule() {
		t.Error("ReuseSearcher did not install the algorithm's own table")
	}
}

// TestUniformTableConcurrentFirstUse has several goroutines make the first
// searchers of one Uniform at once, as a parallel Monte-Carlo run does: all
// must share one fully built table (run under -race).
func TestUniformTableConcurrentFirstUse(t *testing.T) {
	t.Parallel()

	alg := MustUniform(0.5)
	const workers = 8
	tables := make([]*uniformTable, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var rng xrand.Stream
			rng.Reset(1, uint64(w))
			s := alg.NewSearcher(&rng, w).(*uniformSearcher)
			if _, ok := s.EmitSortie(nil); !ok {
				t.Error("uniform searcher ended")
			}
			tables[w] = s.table
		}(w)
	}
	wg.Wait()
	for w, tab := range tables {
		if tab == nil || tab != tables[0] {
			t.Fatalf("worker %d got table %p, worker 0 got %p", w, tab, tables[0])
		}
	}
	if got, want := tables[0][len(tables[0])-1], closedFormShape(uniformTableStages-1, uniformTableStages-1, 0.5); got != want {
		t.Errorf("last entry %+v, want %+v", got, want)
	}
}

// BenchmarkUniformEmitSortie measures one EmitSortie call of the uniform
// searcher (ns/op = ns per sortie), schedule lookup, target draw and segment
// construction included. The searcher restarts every 256 sorties, so the
// measured mix stays in the early big-stages (ℓ <= 10) where short trials
// spend their sorties.
func BenchmarkUniformEmitSortie(b *testing.B) {
	alg := MustUniform(0.5)
	var rng xrand.Stream
	rng.Reset(1, 0)
	var s agent.Searcher = alg.NewSearcher(&rng, 0)
	buf := make([]trajectory.Seg, 0, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if n%256 == 0 {
			s = alg.ReuseSearcher(s, &rng, 0)
		}
		buf, _ = s.(agent.SortieEmitter).EmitSortie(buf[:0])
	}
}
