package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"antsearch/internal/adversary"
	"antsearch/internal/agent"
	"antsearch/internal/cache"
	"antsearch/internal/experiments"
	"antsearch/internal/grid"
	"antsearch/internal/scenario"
	"antsearch/internal/sim"
	"antsearch/internal/stats"
	"antsearch/internal/trajectory"
	"antsearch/internal/xrand"
)

// The traced run prints the per-layer ledger. The result line of every run
// must carry every per-layer metric, so each traced run, whatever its
// workload, measures all layers: a traced megacell cell, an in-process pass
// over the serve grid plus a short session against antserve, one traced
// suite seed, and microbenchmarks of single calls fed with the inputs those
// passes recorded. The three metrics that describe a whole workload —
// trace.overhead_frac, trace.unattributed_frac and parallel.cpu_util — come
// from the pass that matches the selected workload.

const (
	ledgerSample  = 32   // megacell trials whose segments are recorded
	ledgerResults = 2048 // megacell trial results recorded for the accumulator benchmarks
	ledgerAppends = 16   // serve grids' worth of rows appended to a DiskStore
	ledgerPhase   = 1500 * time.Millisecond
)

// whole describes one pass over a workload: how much tracing slowed it, how
// much of its capacity the spans leave unexplained, and its CPU use.
type whole struct {
	overhead, unattributed, cpuUtil float64
}

// recorded holds the workload inputs the microbenchmarks replay.
type recorded struct {
	cellSeed   uint64
	trials     []int
	radii      []int
	ringRadii  []int
	deltas     []float64
	segs       map[trajectory.Kind][]trajectory.Seg
	segTargets map[trajectory.Kind][]grid.Point
	results    []sim.Result
}

func runLedger(o options, t *tally) (map[string]metric, error) {
	ctx := context.Background()
	m := map[string]metric{}
	rec := &recorded{}

	mega, err := ledgerMegacell(ctx, o, t, m, rec)
	if err != nil {
		return nil, fmt.Errorf("megacell pass: %w", err)
	}
	serveW, err := ledgerServe(ctx, o, t, m, rec)
	if err != nil {
		return nil, fmt.Errorf("serve pass: %w", err)
	}
	suiteW, err := ledgerSuite(ctx, o, t, m)
	if err != nil {
		return nil, fmt.Errorf("suite pass: %w", err)
	}
	ledgerMicro(m, rec)

	w := map[string]whole{"megacell": mega, "serve-hit": serveW[hitClass], "serve-miss": serveW[missClass], "suite": suiteW}[o.workload]
	m["trace.overhead_frac"] = metric{w.overhead, "fraction"}
	m["trace.unattributed_frac"] = metric{w.unattributed, "fraction"}
	m["parallel.cpu_util"] = metric{w.cpuUtil, "fraction"}
	return m, nil
}

// cpuTime returns this process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF cannot fail on Linux
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// ledgerMegacell runs megacell's first cell untraced and then traced.
func ledgerMegacell(ctx context.Context, o options, t *tally, m map[string]metric, rec *recorded) (whole, error) {
	workers := runtime.NumCPU()
	cell, err := megaCell(o.seed, 0, megaTrials)
	if err != nil {
		return whole{}, err
	}

	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0, start := cpuTime(), time.Now()
	plain, err := scenario.Runner{Workers: workers}.RunOne(ctx, cell)
	wall, cpu := time.Since(start), cpuTime()-cpu0
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return whole{}, err
	}
	m["sim.allocs_per_trial"] = metric{float64(ms1.Mallocs-ms0.Mallocs) / megaTrials, "count"}
	m["sim.bytes_per_trial"] = metric{float64(ms1.TotalAlloc-ms0.TotalAlloc) / megaTrials, "B"}

	ct := newCellTrace(megaTrials, ledgerSample)
	alg := cell.Factory(megaK)
	ring, err := adversary.NewUniformRing(megaD)
	if err != nil {
		return whole{}, err
	}
	traced := cell
	traced.Factory = func(int) agent.Algorithm { return &tracedAlgorithm{inner: alg, cell: ct} }
	traced.Adversary = &tracedPlace{Strategy: ring, cell: ct, k: megaK}
	var (
		mu     sync.Mutex
		merges []int64
	)
	runner := scenario.Runner{Workers: workers, ProgressEvery: 0, Progress: func(scenario.Cell, sim.Progress) {
		mu.Lock()
		merges = append(merges, ct.now())
		mu.Unlock()
	}}
	cellStart := ct.now()
	tst, err := runner.RunOne(ctx, traced)
	cellEnd := ct.now()
	if err != nil {
		return whole{}, err
	}
	a, _ := json.Marshal(plain)
	b, _ := json.Marshal(tst)
	t.check(bytes.Equal(a, b), "ledger: tracing changed the megacell aggregate")

	spans := ct.spans(cellStart, cellEnd, merges)
	if err := writeSpans(filepath.Join(o.tmp, "spans-megacell.json"), spans); err != nil {
		return whole{}, err
	}
	self, total := selfTimes(spans), totalByName(spans)
	var trialUs []float64
	for _, s := range spans {
		if s.Name == "trial" {
			trialUs = append(trialUs, float64(s.dur())/1e3)
		}
	}
	m["sim.trial_us_p50"] = metric{quantile(trialUs, 0.50), "us"}
	m["sim.trial_us_p99"] = metric{quantile(trialUs, 0.99), "us"}
	m["sim.engine_self_frac"] = metric{float64(self["trial"]) / float64(total["trial"]), "fraction"}

	var emits, segs int
	var emitNs int64
	for i := range ct.trials {
		emits += ct.trials[i].emits
		segs += ct.trials[i].segs
		emitNs += ct.trials[i].emitNs
	}
	m["emit.sorties_per_trial"] = metric{float64(emits) / megaTrials, "count"}
	m["emit.segs_per_sortie"] = metric{float64(segs) / float64(emits), "count"}
	// Each emission's interval holds one clock read; take its cost out.
	m["emit.ns_per_sortie"] = metric{float64(emitNs)/float64(emits) - clockNs(ct), "ns"}
	m["seg.segs_per_trial"] = metric{float64(segs) / megaTrials, "count"}

	sort.Slice(merges, func(i, j int) bool { return merges[i] < merges[j] })
	var gaps []float64
	prev := cellStart
	for _, at := range merges {
		gaps = append(gaps, float64(at-prev)/1e6)
		prev = at
	}
	m["parallel.shards"] = metric{float64(len(merges)), "count"}
	m["parallel.merge_gap_p99_ms"] = metric{quantile(gaps, 0.99), "ms"}

	results, err := sim.MonteCarloResults(ctx, sim.TrialConfig{
		Factory: cell.Factory, NumAgents: megaK, Adversary: ring,
		Trials: ledgerResults, Seed: cell.Seed, Workers: workers,
	})
	if err != nil {
		return whole{}, err
	}
	rec.results = results
	rec.cellSeed = cell.Seed
	recordSegments(ct, results, m, rec)

	tracedWall := time.Duration(cellEnd - cellStart)
	return whole{
		overhead:     tracedWall.Seconds()/wall.Seconds() - 1,
		unattributed: 1 - float64(total["trial"])/(float64(tracedWall)*float64(workers)),
		cpuUtil:      cpu.Seconds() / (wall.Seconds() * float64(runtime.GOMAXPROCS(0))),
	}, nil
}

// recordSegments derives the wasted-segment share from the sample trials and
// keeps their segments, treasures, trial indices and sortie radii for the
// microbenchmarks. A segment is wasted when its agent starts it after the
// trial's Result.Time: the engine never scans it.
func recordSegments(ct *cellTrace, results []sim.Result, m map[string]metric, rec *recorded) {
	rec.segs = map[trajectory.Kind][]trajectory.Seg{}
	rec.segTargets = map[trajectory.Kind][]grid.Point{}
	var wasted, all int
	for tr := 0; tr < ledgerSample; tr++ {
		r := &ct.trials[tr]
		target := ct.treasure[tr]
		for a, segs := range r.agentSegs {
			at := 0
			for _, s := range segs {
				all++
				if at > results[tr].Time {
					wasted++
				}
				at += s.Duration()
				rec.segs[s.Kind()] = append(rec.segs[s.Kind()], s)
				rec.segTargets[s.Kind()] = append(rec.segTargets[s.Kind()], target)
			}
			rec.radii = append(rec.radii, uniformRadii(r.agentSorties[a])...)
		}
	}
	for tr, p := range ct.treasure {
		rec.trials = append(rec.trials, tr)
		rec.ringRadii = append(rec.ringRadii, p.L1())
	}
	m["emit.wasted_seg_frac"] = metric{float64(wasted) / float64(all), "fraction"}
}

// uniformRadii returns the ball radii the uniform algorithm draws for its
// first n sorties: big-stage ell, stage i <= ell, phase j <= i, radius
// sqrt(2^(i+j) / max(j,1)^(1+eps)), as internal/core/uniform.go computes it.
// Replaying the schedule is how the benchmark learns the radii without
// instrumenting the sampler inside the program.
func uniformRadii(n int) []int {
	out := make([]int, 0, n)
	ell, i, j := 0, 0, -1
	for len(out) < n {
		j++
		if j > i {
			i++
			j = 0
			if i > ell {
				ell++
				i = 0
			}
		}
		denom := math.Pow(math.Max(float64(j), 1), 1+megaEps)
		out = append(out, int(math.Sqrt(math.Ldexp(1, i+j)/denom)))
	}
	return out
}

// ledgerServe measures the serve layers in process on the serve grid, then
// runs a short session against antserve.
func ledgerServe(ctx context.Context, o options, t *tally, m map[string]metric, rec *recorded) (map[requestClass]whole, error) {
	g := serveGrid(poolSeed(o.seed, 0))
	var cells []scenario.Cell
	m["scenario.grid_cells_us"] = metric{nsPerOp(1, func() {
		var err error
		if cells, err = g.Cells(); err != nil {
			panic(err) // the serve grid is valid by construction
		}
	}) / 1e3, "us"}

	rows := make([]sim.TrialStats, len(cells))
	start := time.Now()
	for i, c := range cells {
		st, err := scenario.Runner{Workers: 1}.RunOne(ctx, c)
		if err != nil {
			return nil, err
		}
		rows[i] = st
	}
	m["scenario.cell_us"] = metric{float64(time.Since(start).Microseconds()) / float64(len(cells)), "us"}
	for _, c := range cells {
		if c.Scenario == "harmonic-restart" {
			rec.deltas = append(rec.deltas, g.Params.Delta)
		}
		rec.ringRadii = append(rec.ringRadii, c.D)
	}

	m["serve.encode_us"] = metric{nsPerOp(len(rows), func() {
		for i := range rows {
			if _, err := json.Marshal(rows[i]); err != nil {
				panic(err)
			}
		}
	}) / 1e3, "us"}
	keys := make([]cache.Key, len(cells))
	m["cache.cellkey_us"] = metric{nsPerOp(len(cells), func() {
		for i, c := range cells {
			keys[i] = cache.CellKey(c, g.Params)
		}
	}) / 1e3, "us"}
	c := cache.New(cache.DefaultCapacity)
	for i, k := range keys {
		st := rows[i]
		if _, _, err := c.Do(ctx, k, func(context.Context) (sim.TrialStats, error) { return st, nil }); err != nil {
			return nil, err
		}
	}
	m["cache.do_hit_ns"] = metric{nsPerOp(len(keys), func() {
		for _, k := range keys {
			if _, cached, err := c.Do(ctx, k, nil); err != nil || !cached {
				panic("cache.Do missed a filled key")
			}
		}
	}), "ns"}
	if err := ledgerStore(o, g, rows, m); err != nil {
		return nil, err
	}
	return ledgerSession(o, t, m)
}

// ledgerStore times DiskStore appends of the serve rows under the keys of
// ledgerAppends consecutive serve grids, then the snapshot of all of them
// and a fresh store's load of that snapshot, the warm boot's read.
func ledgerStore(o options, g scenario.Grid, rows []sim.TrialStats, m map[string]metric) error {
	dir, err := os.MkdirTemp(o.tmp, "store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := cache.OpenDiskStore(dir)
	if err != nil {
		return err
	}
	entries, appendUs, err := timeAppends(store, g, rows, o.seed)
	if err != nil {
		return errors.Join(err, store.Close())
	}
	m["cache.append_us_p50"] = metric{quantile(appendUs, 0.50), "us"}
	m["cache.append_us_p99"] = metric{quantile(appendUs, 0.99), "us"}
	start := time.Now()
	if err := store.Snapshot(entries); err != nil {
		return errors.Join(err, store.Close())
	}
	m["cache.snapshot_ms"] = metric{float64(time.Since(start)) / 1e6, "ms"}
	if err := store.Close(); err != nil {
		return err
	}
	start = time.Now()
	store, err = cache.OpenDiskStore(dir)
	if err != nil {
		return err
	}
	loaded := 0
	err = store.Load(func(cache.Entry) { loaded++ })
	m["cache.load_ms"] = metric{float64(time.Since(start)) / 1e6, "ms"}
	if err == nil && loaded != len(entries) {
		err = fmt.Errorf("store loaded %d of %d entries", loaded, len(entries))
	}
	return errors.Join(err, store.Close())
}

// timeAppends appends the serve rows under the keys of ledgerAppends
// consecutive pool grids and returns the entries with each append's time.
func timeAppends(store *cache.DiskStore, g scenario.Grid, rows []sim.TrialStats, seed uint64) ([]cache.Entry, []float64, error) {
	var entries []cache.Entry
	var us []float64
	for n := 0; n < ledgerAppends; n++ {
		g.Seed = poolSeed(seed, n)
		cells, err := g.Cells()
		if err != nil {
			return nil, nil, err
		}
		for i, c := range cells {
			e := cache.Entry{Key: cache.CellKey(c, g.Params), Stats: rows[i]}
			start := time.Now()
			if err := store.Append(e); err != nil {
				return nil, nil, err
			}
			us = append(us, float64(time.Since(start))/1e3)
			entries = append(entries, e)
		}
	}
	return entries, us, nil
}

// ledgerSession boots antserve from a store holding two pool sweeps and
// runs, per request class, an untraced phase and a traced phase of
// ledgerPhase each. The traced phase records request, first-row and row
// spans in the client.
func ledgerSession(o options, t *tally, m map[string]metric) (map[requestClass]whole, error) {
	dir, err := os.MkdirTemp(o.tmp, "session-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	store := filepath.Join(dir, "store")
	pool, err := buildPool(o, store, 2)
	if err != nil {
		return nil, err
	}
	srv, _, err := startServer(o.antserve, store)
	if err != nil {
		return nil, err
	}

	out := map[requestClass]whole{}
	var requests [2]int
	var rowBytes []float64
	for _, class := range []requestClass{hitClass, missClass} {
		cpu0, err := srv.cpuTime()
		if err != nil {
			srv.kill()
			return nil, err
		}
		plain := closedLoop(phase{addr: srv.addr, seed: o.seed, stream: 1, class: class, pool: pool, duration: ledgerPhase})
		cpu1, err := srv.cpuTime()
		if err != nil {
			srv.kill()
			return nil, err
		}
		tr := &spanLog{t0: time.Now()}
		traced := closedLoop(phase{addr: srv.addr, seed: o.seed, stream: 2, class: class, pool: pool,
			duration: ledgerPhase, keepRows: 1, trace: tr})
		spans := tr.spans
		name := map[requestClass]string{hitClass: "hit", missClass: "miss"}[class]
		if err := writeSpans(filepath.Join(o.tmp, "spans-serve-"+name+".json"), spans); err != nil {
			srv.kill()
			return nil, err
		}
		for _, ld := range []*load{plain, traced} {
			requests[class] += ld.requests
			for reason, n := range ld.reasons {
				t.op(n, n, "ledger: "+reason)
			}
			t.op(ld.requests-ld.failed, 0, "")
		}
		m["serve.first_row_p50_ms."+name] = metric{median(plain.firstRow), "ms"}
		m["serve.server_cpu_ms_per_req."+name] = metric{float64(cpu1-cpu0) / 1e6 / float64(plain.requests), "ms"}
		for _, r := range traced.rows {
			rowBytes = append(rowBytes, float64(len(r)))
		}
		reqTotal := totalByName(spans)["request"]
		out[class] = whole{
			overhead:     float64(plain.requests)/plain.wall.Seconds()/(float64(traced.requests)/traced.wall.Seconds()) - 1,
			unattributed: 1 - float64(reqTotal)/(float64(traced.wall)*float64(runtime.NumCPU())),
			cpuUtil:      (cpu1 - cpu0).Seconds() / (plain.wall.Seconds() * float64(runtime.NumCPU())),
		}
	}
	m["serve.row_bytes"] = metric{median(rowBytes), "B"}

	st, err := srv.stats()
	stopErr := srv.stop()
	if err != nil {
		return nil, err
	}
	t.check(stopErr == nil, fmt.Sprintf("ledger: antserve shutdown: %v", stopErr))
	lookups := st.Cache.Hits + st.Cache.Misses + st.Cache.Joined
	ratio := float64(st.Cache.Hits) / float64(lookups)
	m["cache.hit_ratio"] = metric{ratio, "fraction"}
	planned := float64(requests[hitClass]) / float64(requests[hitClass]+requests[missClass])
	t.check(math.Abs(ratio-planned) < 1e-9, fmt.Sprintf("ledger: hit ratio %v, planned %v", ratio, planned))
	m["serve.shed"] = metric{float64(st.ShedSweeps), "count"}
	m["serve.abandoned"] = metric{float64(st.AbandonedSweeps), "count"}
	t.check(st.ShedSweeps == 0 && st.AbandonedSweeps == 0, "ledger: shed or abandoned sweeps")
	return out, nil
}

// ledgerSuite runs the suite at the workload's seed untraced, then traced
// with one span per experiment.
func ledgerSuite(ctx context.Context, o options, t *tally, m map[string]metric) (whole, error) {
	cfg := experiments.Config{Seed: o.seed, Scale: experiments.Quick, Workers: 0}
	cpu0, start := cpuTime(), time.Now()
	for _, exp := range experiments.All() {
		if _, err := exp.Run(ctx, cfg); err != nil {
			return whole{}, err
		}
	}
	wall, cpu := time.Since(start), cpuTime()-cpu0

	t0 := time.Now()
	var spans []span
	failed := 0
	for i, exp := range experiments.All() {
		s := int64(time.Since(t0))
		out, err := exp.Run(ctx, cfg)
		spans = append(spans, span{Name: "experiment", Start: s, End: int64(time.Since(t0)), Parent: -1, ID: i})
		t.check(err == nil && out != nil && len(out.Tables) > 0, "ledger: "+exp.ID+" failed")
		if err == nil {
			failed += failedChecks(out)
		}
		m["experiments."+exp.ID+"_s"] = metric{float64(spans[i].dur()) / 1e9, "s"}
	}
	tracedWall := time.Since(t0)
	if err := writeSpans(filepath.Join(o.tmp, "spans-suite.json"), spans); err != nil {
		return whole{}, err
	}
	m["experiments.checks_failed"] = metric{float64(failed), "count"}
	return whole{
		overhead:     tracedWall.Seconds()/wall.Seconds() - 1,
		unattributed: 1 - float64(totalByName(spans)["experiment"])/float64(tracedWall),
		cpuUtil:      cpu.Seconds() / (wall.Seconds() * float64(runtime.GOMAXPROCS(0))),
	}, nil
}

var sink int

// ledgerMicro times single calls of the sampler, trajectory, accumulator and
// codec layers on the recorded inputs.
func ledgerMicro(m map[string]metric, rec *recorded) {
	s := xrand.NewStream(rec.cellSeed, 1)
	m["xrand.ball_point_ns"] = metric{nsPerOp(len(rec.radii), func() {
		for _, r := range rec.radii {
			sink += s.UniformBallPoint(r).X
		}
	}), "ns"}
	m["xrand.ring_point_ns"] = metric{nsPerOp(len(rec.ringRadii), func() {
		for _, r := range rec.ringRadii {
			sink += s.UniformRingPoint(r).X
		}
	}), "ns"}
	m["xrand.power_law_ns"] = metric{nsPerOp(len(rec.deltas), func() {
		for _, d := range rec.deltas {
			sink += s.PowerLawRadius(d)
		}
	}), "ns"}
	m["xrand.derive_seed_ns"] = metric{nsPerOp(len(rec.trials), func() {
		for _, tr := range rec.trials {
			sink += int(xrand.DeriveSeed(rec.cellSeed, xrand.PathTrial, uint64(tr)))
		}
	}), "ns"}
	m["xrand.reset_ns"] = metric{nsPerOp(len(rec.trials), func() {
		for _, tr := range rec.trials {
			s.Reset(rec.cellSeed, xrand.PathPlacement, uint64(tr))
		}
	}), "ns"}

	for kind, name := range map[trajectory.Kind]string{trajectory.KindWalk: "walk", trajectory.KindSpiral: "spiral"} {
		segs, targets := rec.segs[kind], rec.segTargets[kind]
		m["seg.scan_ns."+name] = metric{nsPerOp(len(segs), func() {
			for i, sg := range segs {
				_, _, d, _, _ := sg.Scan(targets[i])
				sink += d
			}
		}), "ns"}
	}

	half := len(rec.results) / 2
	fold := func(rs []sim.Result) *sim.TrialAccumulator {
		acc := sim.NewTrialAccumulator(megaK, megaD)
		for _, r := range rs {
			acc.Add(r)
		}
		return acc
	}
	m["sim.acc_add_ns"] = metric{nsPerOp(half, func() { fold(rec.results[:half]) }), "ns"}
	shard := fold(rec.results[half:])
	first, err := fold(rec.results[:half]).MarshalBinary()
	if err != nil {
		panic(err)
	}
	var mergeUs []float64
	for rep := 0; rep < 50; rep++ {
		a := new(sim.TrialAccumulator)
		if err := a.UnmarshalBinary(first); err != nil {
			panic(err)
		}
		start := time.Now()
		a.Merge(shard)
		mergeUs = append(mergeUs, float64(time.Since(start))/1e3)
	}
	m["sim.acc_merge_us"] = metric{median(mergeUs), "us"}
	full := fold(rec.results)
	m["sim.stats_us"] = metric{nsPerOp(1, func() { sink += full.Stats().Trials }) / 1e3, "us"}

	times := make([]float64, len(rec.results))
	for i, r := range rec.results {
		times[i] = float64(r.Time)
	}
	m["stats.sketch_add_ns"] = metric{nsPerOp(len(times), func() {
		sk := stats.NewSketch(0)
		for _, x := range times {
			sk.Add(x)
		}
	}), "ns"}
	var state []byte
	m["stats.codec_encode_us"] = metric{nsPerOp(1, func() {
		if state, err = full.MarshalBinary(); err != nil {
			panic(err)
		}
	}) / 1e3, "us"}
	m["stats.codec_decode_us"] = metric{nsPerOp(1, func() {
		if err := new(sim.TrialAccumulator).UnmarshalBinary(state); err != nil {
			panic(err)
		}
	}) / 1e3, "us"}
	m["stats.state_bytes"] = metric{float64(len(state)), "B"}
}

// clockNs is the cost of one of the cell trace's clock reads.
func clockNs(ct *cellTrace) float64 {
	return nsPerOp(1000, func() {
		for i := 0; i < 1000; i++ {
			sink += int(ct.now())
		}
	})
}

// nsPerOp times fn, which performs ops operations, and returns the median
// over five samples of the time per operation in ns. Each sample repeats fn
// for at least 5ms.
func nsPerOp(ops int, fn func()) float64 {
	if ops < 1 {
		panic("microbenchmark without recorded inputs")
	}
	var samples []float64
	for s := 0; s < 5; s++ {
		n := 0
		start := time.Now()
		for time.Since(start) < 5*time.Millisecond {
			fn()
			n++
		}
		samples = append(samples, float64(time.Since(start))/float64(n*ops))
	}
	return median(samples)
}
