package scenario

import (
	"context"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"antsearch/internal/adversary"
	"antsearch/internal/sim"
)

func TestGridCellsExpansion(t *testing.T) {
	t.Parallel()

	g := Grid{
		Scenarios: []string{"known-k", "known-d"},
		Params:    DefaultParams(),
		Ks:        []int{1, 4},
		Ds:        []int{8, 16},
		Trials:    5,
		Seed:      3,
	}
	cells, err := g.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 8 {
		t.Fatalf("expanded %d cells, want 8", len(cells))
	}
	// Scenario-major, then D, then k.
	want := []struct {
		name string
		k, d int
	}{
		{"known-k", 1, 8}, {"known-k", 4, 8}, {"known-k", 1, 16}, {"known-k", 4, 16},
		{"known-d", 1, 8}, {"known-d", 4, 8}, {"known-d", 1, 16}, {"known-d", 4, 16},
	}
	for i, w := range want {
		c := cells[i]
		if c.Scenario != w.name || c.K != w.k || c.D != w.d || c.Trials != 5 || c.Seed != 3 {
			t.Errorf("cell %d = {%s k=%d D=%d trials=%d seed=%d}, want {%s k=%d D=%d trials=5 seed=3}",
				i, c.Scenario, c.K, c.D, c.Trials, c.Seed, w.name, w.k, w.d)
		}
		if c.Factory == nil {
			t.Errorf("cell %d has no factory", i)
		}
	}
	// known-d cells must have been parameterised with their own D: the
	// resolved algorithm's name embeds it.
	if name := cells[4].Factory(1).Name(); name != "known-d(D=8)" {
		t.Errorf("known-d cell at D=8 resolves to %q", name)
	}
	if name := cells[6].Factory(1).Name(); name != "known-d(D=16)" {
		t.Errorf("known-d cell at D=16 resolves to %q", name)
	}
}

func TestGridCellsErrors(t *testing.T) {
	t.Parallel()

	if _, err := (Grid{Scenarios: []string{"nope"}, Ks: []int{1}, Ds: []int{8}, Trials: 1}).Cells(); err == nil {
		t.Error("unknown scenario should fail")
	}
	if _, err := (Grid{
		Scenarios: []string{"uniform"},
		Params:    Params{}, // epsilon 0 is invalid for uniform
		Ks:        []int{1}, Ds: []int{8}, Trials: 1,
	}).Cells(); err == nil {
		t.Error("invalid parameters should fail at expansion")
	}
	// Range values are validated at expansion time, so a detectably invalid
	// grid fails up front rather than mid-sweep from inside the engine.
	if _, err := (Grid{Scenarios: []string{"known-k"}, Ks: []int{0}, Ds: []int{8}, Trials: 1}).Cells(); err == nil {
		t.Error("k=0 should fail at expansion")
	}
	if _, err := (Grid{Scenarios: []string{"known-k"}, Ks: []int{1}, Ds: []int{-4}, Trials: 1}).Cells(); err == nil {
		t.Error("negative D should fail at expansion")
	}
	if _, err := (Grid{Scenarios: []string{"known-k"}, Ks: []int{1}, Ds: []int{8}, Trials: 1, MaxTime: -1}).Cells(); err == nil {
		t.Error("negative MaxTime should fail at expansion")
	}
	// The engine packs (elapsed, agent index) into one word, so a cap of
	// 2^62 leaves no room for the two index bits k=3 needs.
	if _, err := (Grid{Scenarios: []string{"known-k"}, Ks: []int{2, 3}, Ds: []int{8}, Trials: 1, MaxTime: 1 << 62}).Cells(); err == nil {
		t.Error("MaxTime=2^62 with k=3 should fail at expansion")
	}
	if _, err := (Grid{Scenarios: []string{"known-k"}, Ks: []int{1, 2}, Ds: []int{8}, Trials: 1, MaxTime: math.MaxInt}).Cells(); err != nil {
		t.Errorf("MaxTime=MaxInt with k<=2 should expand: %v", err)
	}
}

func TestGridCellsExplicitDWithMultipleDs(t *testing.T) {
	t.Parallel()

	p := DefaultParams()
	p.D = 8 // explicit advice distance
	_, err := (Grid{
		Scenarios: []string{"known-d"},
		Params:    p,
		Ks:        []int{1}, Ds: []int{8, 16}, Trials: 1,
	}).Cells()
	if err == nil {
		t.Fatal("explicit Params.D with multiple swept Ds should fail: the factories " +
			"would all use D=8 while cells report the swept D")
	}
	if !strings.Contains(err.Error(), "Params.D") {
		t.Errorf("error should name Params.D, got: %v", err)
	}

	// A single swept D with an explicit different Params.D stays legal — the
	// deliberate wrong-advice configuration.
	cells, err := (Grid{
		Scenarios: []string{"known-d"},
		Params:    p,
		Ks:        []int{1}, Ds: []int{16}, Trials: 1,
	}).Cells()
	if err != nil {
		t.Fatalf("single swept D with explicit Params.D: %v", err)
	}
	if name := cells[0].Factory(1).Name(); name != "known-d(D=8)" {
		t.Errorf("wrong-advice cell resolves to %q, want known-d(D=8)", name)
	}
}

// TestRunnerCellWorkersParity is the parity property test of the parallel
// cross-cell path: on a multi-scenario grid, every CellWorkers value must
// reproduce the sequential statistics exactly, index for index.
func TestRunnerCellWorkersParity(t *testing.T) {
	t.Parallel()

	cells, err := Grid{
		Scenarios: []string{"known-k", "uniform", "single-spiral", "known-d"},
		Params:    DefaultParams(),
		Ks:        []int{1, 3},
		Ds:        []int{6, 11},
		Trials:    7,
		Seed:      42,
	}.Cells()
	if err != nil {
		t.Fatal(err)
	}
	want, err := Runner{}.Run(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	for _, cw := range []int{2, 3, 8, 64} {
		got, err := Runner{CellWorkers: cw}.Run(context.Background(), cells)
		if err != nil {
			t.Fatalf("CellWorkers=%d: %v", cw, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("CellWorkers=%d: statistics differ from the sequential path", cw)
		}
	}
}

func TestRunnerCellWorkersError(t *testing.T) {
	t.Parallel()

	factory, err := Factory("known-k", Params{})
	if err != nil {
		t.Fatal(err)
	}
	cells := []Cell{
		{Scenario: "known-k", Factory: factory, K: 1, D: 6, Trials: 2, Seed: 1},
		{Scenario: "known-k", Factory: factory, K: 1, D: 0, Trials: 2, Seed: 1}, // invalid
	}
	if _, err := (Runner{CellWorkers: 4}).Run(context.Background(), cells); err == nil {
		t.Error("a failing cell must fail the parallel run")
	}
}

func TestGridDefaultsFromRegistry(t *testing.T) {
	t.Parallel()

	cells, err := Grid{Scenarios: []string{"known-k"}, Params: DefaultParams(), Seed: 1}.Cells()
	if err != nil {
		t.Fatal(err)
	}
	scn, _ := Get("known-k")
	if len(cells) != len(scn.Ks)*len(scn.Ds) {
		t.Errorf("expanded %d cells, want the scenario's %d defaults", len(cells), len(scn.Ks)*len(scn.Ds))
	}
	if cells[0].Trials != scn.Trials {
		t.Errorf("trials = %d, want the scenario default %d", cells[0].Trials, scn.Trials)
	}
}

// TestRunnerMatchesMonteCarlo pins the engine's contract: a cell runs exactly
// the sim.MonteCarlo trial semantics, so statistics are identical to calling
// the simulator directly with the same configuration.
func TestRunnerMatchesMonteCarlo(t *testing.T) {
	t.Parallel()

	factory, err := Factory("known-k", Params{})
	if err != nil {
		t.Fatal(err)
	}
	cell := Cell{Scenario: "known-k", Factory: factory, K: 3, D: 10, Trials: 25, Seed: 99}
	got, err := Runner{}.RunOne(context.Background(), cell)
	if err != nil {
		t.Fatal(err)
	}

	ring, err := adversary.NewUniformRing(10)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sim.MonteCarlo(context.Background(), sim.TrialConfig{
		Factory:   factory,
		NumAgents: 3,
		Adversary: ring,
		Trials:    25,
		Seed:      99,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("runner stats differ from direct MonteCarlo:\n%+v\nvs\n%+v", got, want)
	}
}

func TestRunnerRunOrder(t *testing.T) {
	t.Parallel()

	factory, err := Factory("known-k", Params{})
	if err != nil {
		t.Fatal(err)
	}
	cells := []Cell{
		{Scenario: "known-k", Factory: factory, K: 1, D: 6, Trials: 4, Seed: 5},
		{Scenario: "known-k", Factory: factory, K: 4, D: 12, Trials: 4, Seed: 5},
	}
	stats, err := Runner{}.Run(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 2 {
		t.Fatalf("got %d stats, want 2", len(stats))
	}
	if stats[0].NumAgents != 1 || stats[0].Distance != 6 {
		t.Errorf("stats[0] is for k=%d D=%d, want the first cell", stats[0].NumAgents, stats[0].Distance)
	}
	if stats[1].NumAgents != 4 || stats[1].Distance != 12 {
		t.Errorf("stats[1] is for k=%d D=%d, want the second cell", stats[1].NumAgents, stats[1].Distance)
	}
}

func TestRunnerErrors(t *testing.T) {
	t.Parallel()

	factory, err := Factory("known-k", Params{})
	if err != nil {
		t.Fatal(err)
	}
	// D < 1 cannot build the default ring adversary.
	if _, err := (Runner{}).RunOne(context.Background(), Cell{
		Scenario: "known-k", Factory: factory, K: 1, D: 0, Trials: 1,
	}); err == nil {
		t.Error("D=0 should fail")
	}
	// An explicit adversary bypasses the default ring.
	st, err := Runner{}.RunOne(context.Background(), Cell{
		Scenario: "known-k", Factory: factory, K: 1, D: 6, Trials: 3,
		Adversary: adversary.Axis{D: 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Distance != 6 || st.Found != 3 {
		t.Errorf("axis adversary run: %+v", st)
	}
}

// TestAutoSplit pins the adaptive heuristic's two regimes: many small cells
// route the cores to cross-cell parallelism with sequential trials, few big
// cells route them to trial-level fan-out.
func TestAutoSplit(t *testing.T) {
	t.Parallel()

	small := make([]Cell, 64)
	for i := range small {
		small[i] = Cell{Trials: 8}
	}
	cw, tw := AutoSplit(small, 8)
	if cw != 8 || tw != 1 {
		t.Errorf("64 small cells on 8 cores: split (%d, %d), want (8, 1)", cw, tw)
	}

	big := []Cell{{Trials: 100000}, {Trials: 100000}}
	cw, tw = AutoSplit(big, 8)
	if cw != 2 || tw != 4 {
		t.Errorf("2 big cells on 8 cores: split (%d, %d), want (2, 4)", cw, tw)
	}

	// The largest trial budget bounds the useful trial-level fan-out.
	tiny := []Cell{{Trials: 2}}
	cw, tw = AutoSplit(tiny, 16)
	if cw != 1 || tw != 2 {
		t.Errorf("1 two-trial cell on 16 cores: split (%d, %d), want (1, 2)", cw, tw)
	}

	if cw, tw = AutoSplit(nil, 8); cw != 1 || tw != 1 {
		t.Errorf("no cells: split (%d, %d), want (1, 1)", cw, tw)
	}
	// cores <= 0 falls back to GOMAXPROCS; the split must stay positive.
	if cw, tw = AutoSplit(small, 0); cw < 1 || tw < 1 {
		t.Errorf("GOMAXPROCS fallback produced a degenerate split (%d, %d)", cw, tw)
	}
}

// TestRunnerAdaptiveParity checks that the adaptive splitter reproduces the
// statistics of both fixed configurations it arbitrates between — all cores
// on cells, and all cores on trials — exactly, on both of its regimes.
func TestRunnerAdaptiveParity(t *testing.T) {
	t.Parallel()

	grids := []Grid{
		{ // many small cells
			Scenarios: []string{"known-k", "uniform"},
			Params:    DefaultParams(),
			Ks:        []int{1, 2, 3, 4},
			Ds:        []int{5, 9},
			Trials:    5,
			Seed:      17,
		},
		{ // few big cells
			Scenarios: []string{"known-k"},
			Params:    DefaultParams(),
			Ks:        []int{2},
			Ds:        []int{7},
			Trials:    600,
			Seed:      17,
		},
	}
	for i, g := range grids {
		cells, err := g.Cells()
		if err != nil {
			t.Fatal(err)
		}
		want, err := Runner{CellWorkers: 8, Workers: 1}.Run(context.Background(), cells)
		if err != nil {
			t.Fatal(err)
		}
		cross, err := Runner{CellWorkers: 1, Workers: 8}.Run(context.Background(), cells)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cross, want) {
			t.Fatalf("grid %d: the two fixed configurations disagree; parity premise broken", i)
		}
		got, err := Runner{Adaptive: true}.Run(context.Background(), cells)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("grid %d: adaptive runner differs from the fixed configurations", i)
		}
	}
}

// TestFaultySweepParallel runs a faulty sweep — the registered -faulty
// variants plus a grid with explicit fault knobs — through the parallel
// cross-cell and trial-level paths and asserts bit-identical statistics
// against the sequential run. Executed under -race in CI, it also exercises
// the fault interpreter for data races across worker goroutines.
func TestFaultySweepParallel(t *testing.T) {
	t.Parallel()

	p := DefaultParams()
	p.CrashProb = 0.25
	p.CrashBy = 32
	p.StallProb = 0.5
	p.StallBy = 32
	p.StallDur = 16
	cells, err := Grid{
		Scenarios: []string{"known-k", "uniform"},
		Params:    p,
		Ks:        []int{2, 4},
		Ds:        []int{8, 16},
		Trials:    12,
		MaxTime:   1 << 16,
		Seed:      42,
	}.Cells()
	if err != nil {
		t.Fatal(err)
	}
	variantCells, err := Grid{
		Scenarios: []string{"known-k-faulty"},
		Params:    DefaultParams(),
		Ks:        []int{4},
		Ds:        []int{16},
		Trials:    12,
		MaxTime:   1 << 16,
		Seed:      42,
	}.Cells()
	if err != nil {
		t.Fatal(err)
	}
	cells = append(cells, variantCells...)
	for _, c := range cells {
		if c.Faults == nil {
			t.Fatalf("cell %s k=%d D=%d lost its fault plan", c.Scenario, c.K, c.D)
		}
	}

	want, err := Runner{}.Run(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []Runner{
		{CellWorkers: 3},
		{Workers: 4},
		{CellWorkers: 2, Workers: 2},
		{Adaptive: true},
	} {
		got, err := r.Run(context.Background(), cells)
		if err != nil {
			t.Fatalf("%+v: %v", r, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%+v: faulty statistics differ from the sequential path", r)
		}
	}

	// Survivors must show the faults' teeth somewhere in the sweep: with
	// CrashProb 0.25 over these cells, at least one trial loses an agent.
	sawLoss := false
	for i, st := range want {
		if st.MeanSurvivors() < float64(cells[i].K) {
			sawLoss = true
		}
	}
	if !sawLoss {
		t.Error("no cell lost a single agent; the fault plan is not reaching the engine")
	}
}

// TestFaultPlanResolution pins the precedence rule of Cells: explicit Params
// knobs beat the scenario's registered default plan, and a fault-free grid
// over a fault-free scenario carries no plan at all.
func TestFaultPlanResolution(t *testing.T) {
	t.Parallel()

	// Explicit knobs over a -faulty variant: the request's plan wins.
	p := DefaultParams()
	p.CrashProb = 0.75
	p.CrashBy = 7
	cells, err := Grid{
		Scenarios: []string{"known-k-faulty"},
		Params:    p,
		Ks:        []int{1}, Ds: []int{8}, Trials: 1,
	}.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if cells[0].Faults == nil || cells[0].Faults.CrashProb != 0.75 || cells[0].Faults.CrashBy != 7 {
		t.Errorf("explicit knobs should shadow the scenario default, got %+v", cells[0].Faults)
	}

	// No knobs over the variant: the registered default applies.
	cells, err = Grid{
		Scenarios: []string{"known-k-faulty"},
		Params:    DefaultParams(),
		Ks:        []int{1}, Ds: []int{8}, Trials: 1,
	}.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if cells[0].Faults == nil || cells[0].Faults.CrashProb != 0.25 {
		t.Errorf("the -faulty variant should carry its registered default plan, got %+v", cells[0].Faults)
	}

	// No knobs over a fault-free scenario: no plan.
	cells, err = Grid{
		Scenarios: []string{"known-k"},
		Params:    DefaultParams(),
		Ks:        []int{1}, Ds: []int{8}, Trials: 1,
	}.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if cells[0].Faults != nil {
		t.Errorf("fault-free grid over fault-free scenario should carry no plan, got %+v", cells[0].Faults)
	}

	// Invalid knobs fail at expansion, not mid-sweep.
	bad := DefaultParams()
	bad.CrashProb = 0.5 // CrashBy missing
	if _, err := (Grid{
		Scenarios: []string{"known-k"},
		Params:    bad,
		Ks:        []int{1}, Ds: []int{8}, Trials: 1,
	}).Cells(); err == nil {
		t.Error("a crash probability without a crash horizon should fail at expansion")
	}
}

// runnerMemCheckpointer is a minimal in-memory sim.Checkpointer for plumbing
// tests.
type runnerMemCheckpointer struct {
	mu    sync.Mutex
	saved []sim.CheckpointState
}

func (m *runnerMemCheckpointer) Load(valid func(sim.CheckpointState) bool) (sim.CheckpointState, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := len(m.saved) - 1; i >= 0; i-- {
		if valid(m.saved[i]) {
			return m.saved[i], true
		}
	}
	return sim.CheckpointState{}, false
}

func (m *runnerMemCheckpointer) Save(cp sim.CheckpointState) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.saved = append(m.saved, cp)
	return nil
}

// TestRunnerProgressAndCheckpointPlumbing pins that the runner threads its
// Progress and Checkpointer hooks into every cell's TrialConfig, that hooked
// runs stay bit-identical to plain ones, and that a second run resumes from
// the first run's checkpoints.
func TestRunnerProgressAndCheckpointPlumbing(t *testing.T) {
	t.Parallel()

	cells, err := Grid{
		Scenarios: []string{"known-k", "uniform"},
		Params:    DefaultParams(),
		Ks:        []int{2}, Ds: []int{8},
		Trials: 4096, Seed: 9,
	}.Cells()
	if err != nil {
		t.Fatal(err)
	}
	want, err := Runner{}.Run(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	final := map[string]sim.Progress{}
	stores := map[string]*runnerMemCheckpointer{}
	for _, c := range cells {
		stores[c.Scenario] = &runnerMemCheckpointer{}
	}
	r := Runner{
		CellWorkers: 2,
		Progress: func(c Cell, p sim.Progress) {
			mu.Lock()
			final[c.Scenario] = p
			mu.Unlock()
		},
		Checkpointer:    func(c Cell) sim.Checkpointer { return stores[c.Scenario] },
		CheckpointEvery: 1,
	}
	got, err := r.Run(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("hooked run differs from the plain run")
	}
	for _, c := range cells {
		p := final[c.Scenario]
		if p.ShardsDone != p.TotalShards || p.TrialsDone != c.Trials {
			t.Errorf("%s: final progress incomplete: %+v", c.Scenario, p)
		}
		store := stores[c.Scenario]
		store.mu.Lock()
		n := len(store.saved)
		store.mu.Unlock()
		if n == 0 {
			t.Errorf("%s: no checkpoints persisted", c.Scenario)
		}
	}

	// A rerun over the same cells resumes from the persisted prefixes and
	// still produces identical statistics.
	resumedAny := false
	r.Progress = func(c Cell, p sim.Progress) {
		mu.Lock()
		if p.ResumedShards > 0 {
			resumedAny = true
		}
		mu.Unlock()
	}
	got2, err := r.Run(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got2, want) {
		t.Error("resumed run differs from the plain run")
	}
	if !resumedAny {
		t.Error("no cell resumed from its checkpoints")
	}
}
