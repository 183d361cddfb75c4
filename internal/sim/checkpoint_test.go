package sim

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"antsearch/internal/adversary"
	"antsearch/internal/core"
)

// memCheckpointer is an in-memory Checkpointer for tests: it records every
// Save and serves Load from the recorded states, optionally failing the run
// mid-flight to simulate a crash.
type memCheckpointer struct {
	saved []CheckpointState
	// failAfter, when > 0, makes the failAfter-th Save call invoke kill and
	// drop every later Save — simulating a process that died right after
	// persisting its failAfter-th checkpoint: cancellation lets in-flight
	// merges drain, but a dead process writes nothing more to disk.
	failAfter int
	kill      func()
	dead      bool
	saveErr   error // returned by Save (the engine must shrug it off)
}

func (m *memCheckpointer) Load(valid func(CheckpointState) bool) (CheckpointState, bool) {
	// Longest prefix first, like the durable store.
	sorted := append([]CheckpointState(nil), m.saved...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].TrialsDone > sorted[j].TrialsDone })
	for _, cp := range sorted {
		if valid(cp) {
			return cp, true
		}
	}
	return CheckpointState{}, false
}

func (m *memCheckpointer) Save(cp CheckpointState) error {
	if m.saveErr != nil {
		return m.saveErr
	}
	if m.dead {
		return nil
	}
	m.saved = append(m.saved, cp)
	if m.failAfter > 0 && len(m.saved) == m.failAfter {
		m.dead = true
		if m.kill != nil {
			m.kill()
		}
	}
	return nil
}

func checkpointTestConfig(t *testing.T, trials, workers int) TrialConfig {
	t.Helper()
	ring, err := adversary.NewUniformRing(8)
	if err != nil {
		t.Fatal(err)
	}
	return TrialConfig{
		Factory:   core.Factory(),
		NumAgents: 4,
		Adversary: ring,
		Trials:    trials,
		Seed:      11,
		Workers:   workers,
	}
}

func statsJSON(t *testing.T, st TrialStats) string {
	t.Helper()
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestTrialAccumulatorBinaryRoundTrip(t *testing.T) {
	t.Parallel()

	rng := rand.New(rand.NewPCG(5, 23))
	for _, trials := range []int{0, 1, 77, 1500} {
		a := NewTrialAccumulator(4, 8)
		for i := 0; i < trials; i++ {
			found := rng.Float64() < 0.9
			a.Add(Result{
				Found: found, Capped: !found,
				Time:      1 + rng.IntN(500),
				Survivors: 4, Distance: 8, LowerBound: 24,
			})
		}
		data, err := a.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		b := new(TrialAccumulator)
		if err := b.UnmarshalBinary(data); err != nil {
			t.Fatalf("trials=%d: %v", trials, err)
		}
		// The decoded accumulator must evolve identically: fold the same
		// suffix into both and compare the full JSON-rendered aggregates.
		for i := 0; i < 300; i++ {
			found := rng.Float64() < 0.8
			r := Result{
				Found: found, Capped: !found,
				Time:      1 + rng.IntN(900),
				Survivors: 3, Distance: 8, LowerBound: 24,
			}
			a.Add(r)
			b.Add(r)
		}
		if got, want := statsJSON(t, b.Stats()), statsJSON(t, a.Stats()); got != want {
			t.Fatalf("trials=%d: round-tripped accumulator diverged\n got %s\nwant %s", trials, got, want)
		}
	}
}

func TestTrialAccumulatorUnmarshalRejectsDamage(t *testing.T) {
	t.Parallel()

	a := NewTrialAccumulator(2, 8)
	for i := 0; i < 20; i++ {
		a.Add(Result{Found: true, Time: i + 1, Survivors: 2, Distance: 8, LowerBound: 40})
	}
	good, err := a.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		"empty":       nil,
		"bad version": append([]byte{trialAccumulatorStateVersion + 1}, good[1:]...),
		"truncated":   good[:len(good)-5],
		"trailing":    append(append([]byte(nil), good...), 0),
	} {
		b := new(TrialAccumulator)
		if err := b.UnmarshalBinary(data); err == nil {
			t.Errorf("%s: UnmarshalBinary accepted damaged state", name)
		}
	}
}

// TestTrialAccumulatorUnmarshalRejectsInconsistentCounts pins the
// cross-field check: every field decodes on its own, but a state whose counts
// disagree with each other cannot have come from Add and must be rejected.
func TestTrialAccumulatorUnmarshalRejectsInconsistentCounts(t *testing.T) {
	t.Parallel()

	a := NewTrialAccumulator(2, 8)
	for i := 0; i < 10; i++ {
		a.Add(Result{Found: i%3 != 0, Capped: i%3 == 0, Time: i + 1, Survivors: 2, Distance: 8, LowerBound: 40})
	}
	good, err := a.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// The header is the version byte followed by numAgents, distance,
	// trials, found and capped, eight bytes each.
	patch := func(field, v int) []byte {
		b := append([]byte(nil), good...)
		binary.LittleEndian.PutUint64(b[1+8*field:], uint64(v))
		return b
	}
	for name, data := range map[string][]byte{
		"trials raised": patch(2, 20),
		"trials cut":    patch(2, 8),
		"found raised":  patch(3, 7),
		"found cut":     patch(3, 5),
	} {
		b := new(TrialAccumulator)
		if err := b.UnmarshalBinary(data); err == nil {
			t.Errorf("%s: accepted trials=%d found=%d over allTime.N=%d time.N=%d",
				name, b.trials, b.found, b.allTime.N(), b.time.N())
		}
	}
	if err := new(TrialAccumulator).UnmarshalBinary(good); err != nil {
		t.Fatalf("consistent state rejected: %v", err)
	}
}

// TestMonteCarloRecomputesVersion1Checkpoint pins the codec bump: a state
// written by the version-1 codec (which carried replay logs) is rejected, so
// a run finding one resumes nothing and recomputes from trial 0 with the
// uninterrupted result. The fixture is a genuine version-1 checkpoint of this
// configuration after its first shard (trials [0, 32) of 64, two shards).
func TestMonteCarloRecomputesVersion1Checkpoint(t *testing.T) {
	t.Parallel()

	state, err := os.ReadFile(filepath.Join("testdata", "trial_accumulator_v1.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if len(state) == 0 || state[0] != 1 {
		t.Fatalf("fixture is not a version-1 state")
	}
	if err := new(TrialAccumulator).UnmarshalBinary(state); err == nil {
		t.Fatal("version-1 state decoded")
	}
	ref, err := MonteCarlo(context.Background(), checkpointTestConfig(t, 64, 2))
	if err != nil {
		t.Fatal(err)
	}
	cfg := checkpointTestConfig(t, 64, 2)
	cfg.Checkpointer = &memCheckpointer{saved: []CheckpointState{{
		ShardsDone: 1, TotalShards: 2, TrialsDone: 32, TotalTrials: 64, State: state,
	}}}
	resumed := -1
	cfg.Progress = func(p Progress) { resumed = p.ResumedShards }
	st, err := MonteCarlo(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if resumed != 0 {
		t.Errorf("resumed %d shards from a version-1 checkpoint", resumed)
	}
	if statsJSON(t, st) != statsJSON(t, ref) {
		t.Fatal("run with a version-1 checkpoint differs from a fresh run")
	}
}

func TestAlignShard(t *testing.T) {
	t.Parallel()

	// Every boundary of a plan must align to its own shard index; interior
	// points must not align.
	for _, c := range []struct{ trials, shards int }{{100, 7}, {4096, 4}, {5000, 5}, {1 << 20, 1024}} {
		for s := 1; s <= c.shards; s++ {
			lo, _ := shardRange(c.trials, c.shards, s)
			if s < c.shards {
				if got := alignShard(c.trials, c.shards, lo); got != s {
					t.Fatalf("trials=%d shards=%d: boundary %d aligned to %d, want %d", c.trials, c.shards, lo, got, s)
				}
			}
		}
		if got := alignShard(c.trials, c.shards, c.trials); got != c.shards {
			t.Fatalf("trials=%d shards=%d: full prefix aligned to %d", c.trials, c.shards, got)
		}
	}
	if got := alignShard(100, 7, 15); got != -1 {
		t.Fatalf("non-boundary aligned to %d", got)
	}
	if got := alignShard(100, 7, 0); got != -1 {
		t.Fatalf("empty prefix aligned to %d", got)
	}
	if got := alignShard(100, 7, 101); got != -1 {
		t.Fatalf("overlong prefix aligned to %d", got)
	}
}

func TestMonteCarloProgressReports(t *testing.T) {
	t.Parallel()

	cfg := checkpointTestConfig(t, 256, 4)
	var updates []Progress
	cfg.Progress = func(p Progress) { updates = append(updates, p) }
	st, err := MonteCarlo(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(updates) == 0 {
		t.Fatal("no progress updates fired")
	}
	last := updates[len(updates)-1]
	if last.ShardsDone != last.TotalShards || last.TrialsDone != cfg.Trials {
		t.Fatalf("final update incomplete: %+v", last)
	}
	if last.Stats.Trials != st.Trials || last.Stats.Found != st.Found {
		t.Fatalf("final snapshot differs from the returned stats: %+v vs %+v", last.Stats, st)
	}
	prev := 0
	for _, p := range updates {
		if p.ShardsDone <= prev {
			t.Fatalf("progress not strictly advancing: %d after %d", p.ShardsDone, prev)
		}
		if p.TrialsDone > cfg.Trials || p.TotalTrials != cfg.Trials {
			t.Fatalf("bad trial accounting: %+v", p)
		}
		if p.Stats.Trials != p.TrialsDone {
			t.Fatalf("snapshot covers %d trials, reported %d done", p.Stats.Trials, p.TrialsDone)
		}
		prev = p.ShardsDone
	}
	// The hook must not perturb the result.
	plain := checkpointTestConfig(t, 256, 4)
	ref, err := MonteCarlo(context.Background(), plain)
	if err != nil {
		t.Fatal(err)
	}
	if statsJSON(t, st) != statsJSON(t, ref) {
		t.Fatal("progress hook changed the aggregate")
	}
}

func TestMonteCarloProgressStride(t *testing.T) {
	t.Parallel()

	cfg := checkpointTestConfig(t, 2048, 16) // 16 shards of 128
	cfg.ProgressEvery = 3
	var shardsSeen []int
	cfg.Progress = func(p Progress) { shardsSeen = append(shardsSeen, p.ShardsDone) }
	if _, err := MonteCarlo(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	if len(shardsSeen) == 0 {
		t.Fatal("no progress updates fired")
	}
	// Every interior update lands on a stride multiple; the final shard always
	// reports regardless of alignment.
	for _, s := range shardsSeen[:len(shardsSeen)-1] {
		if s%3 != 0 {
			t.Fatalf("stride 3 fired at shard %d (all: %v)", s, shardsSeen)
		}
	}
	if last := shardsSeen[len(shardsSeen)-1]; last != 16 {
		t.Fatalf("final report at shard %d, want 16 (all: %v)", last, shardsSeen)
	}
}

// TestMonteCarloCheckpointResumeProperty is the kill-and-resume property
// test: interrupt a run right after a random checkpoint (the crash loses
// everything in memory, keeps everything Saved), resume from the persisted
// states, and require the final aggregate byte-identical to an uninterrupted
// run — over random kill points and across worker counts.
func TestMonteCarloCheckpointResumeProperty(t *testing.T) {
	t.Parallel()

	const trials = 2048 // 16 shards of 128 at 16 workers
	ref, err := MonteCarlo(context.Background(), checkpointTestConfig(t, trials, 16))
	if err != nil {
		t.Fatal(err)
	}
	refJSON := statsJSON(t, ref)

	rng := rand.New(rand.NewPCG(99, 1))
	for round := 0; round < 6; round++ {
		killAfter := 1 + rng.IntN(6) // kill after the k-th persisted checkpoint
		ctx, cancel := context.WithCancel(context.Background())
		ck := &memCheckpointer{failAfter: killAfter, kill: cancel}
		cfg := checkpointTestConfig(t, trials, 16)
		cfg.Checkpointer = ck
		cfg.CheckpointEvery = 2
		_, err := MonteCarlo(ctx, cfg)
		cancel()
		if err == nil {
			// The run outpaced the kill (all shards merged before the k-th
			// save); nothing to resume, try the next round.
			continue
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("round %d: unexpected error %v", round, err)
		}
		if len(ck.saved) == 0 {
			t.Fatalf("round %d: killed before any checkpoint", round)
		}

		// Resume: same config, fresh context, the survivor's persisted states.
		resumed := &memCheckpointer{saved: ck.saved}
		cfg2 := checkpointTestConfig(t, trials, 16)
		cfg2.Checkpointer = resumed
		cfg2.CheckpointEvery = 2
		var first Progress
		gotFirst := false
		cfg2.Progress = func(p Progress) {
			if !gotFirst {
				first, gotFirst = p, true
			}
		}
		st, err := MonteCarlo(context.Background(), cfg2)
		if err != nil {
			t.Fatalf("round %d: resume failed: %v", round, err)
		}
		if !gotFirst || first.ResumedShards == 0 {
			t.Fatalf("round %d: resume did not restore any shards (first update %+v)", round, first)
		}
		if got := statsJSON(t, st); got != refJSON {
			t.Fatalf("round %d (kill after save %d): resumed aggregate differs from uninterrupted run\n got %s\nwant %s",
				round, killAfter, got, refJSON)
		}
	}
}

// TestMonteCarloCheckpointResumeAcrossWorkerCounts pins the cross-plan
// resume: a checkpoint written under one worker count resumes under another
// whenever its prefix lands on a boundary of the new plan, and the result is
// still bit-identical (the aggregate is partition-blind).
func TestMonteCarloCheckpointResumeAcrossWorkerCounts(t *testing.T) {
	t.Parallel()

	const trials = 2048
	ref, err := MonteCarlo(context.Background(), checkpointTestConfig(t, trials, 1))
	if err != nil {
		t.Fatal(err)
	}
	refJSON := statsJSON(t, ref)

	// Write checkpoints under workers=16 (16 shards of 128), killing after the
	// second save: persisted prefixes cover 256 and 512 trials. Resuming under
	// workers=4 (shards of 512) or 8 (shards of 256) finds an aligned
	// boundary; workers=1 or 2 (shards of 1024) finds none and recomputes
	// from scratch. Either way the final aggregate must match the reference —
	// the aggregate is partition-blind.
	ctx, cancel := context.WithCancel(context.Background())
	ck := &memCheckpointer{failAfter: 2, kill: cancel}
	cfg := checkpointTestConfig(t, trials, 16)
	cfg.Checkpointer = ck
	cfg.CheckpointEvery = 2
	_, err = MonteCarlo(ctx, cfg)
	cancel()
	if err == nil {
		t.Skip("run finished before the kill; machine too parallel for this fixture")
	}
	if len(ck.saved) == 0 {
		t.Fatal("no checkpoint persisted")
	}

	for _, workers := range []int{1, 2, 4, 8} {
		resumed := &memCheckpointer{saved: ck.saved}
		cfg2 := checkpointTestConfig(t, trials, workers)
		cfg2.Checkpointer = resumed
		var first Progress
		gotFirst := false
		cfg2.Progress = func(p Progress) {
			if !gotFirst {
				first, gotFirst = p, true
			}
		}
		st, err := MonteCarlo(context.Background(), cfg2)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := statsJSON(t, st); got != refJSON {
			t.Fatalf("workers=%d: resumed aggregate differs from reference", workers)
		}
		wantResume := workers == 4 || workers == 8
		if gotFirst && (first.ResumedShards > 0) != wantResume {
			t.Fatalf("workers=%d: resumed %d shards, want resume=%v", workers, first.ResumedShards, wantResume)
		}
	}
}

// TestMonteCarloCheckpointSaveErrorsIgnored pins the degradation contract: a
// Checkpointer whose Save always fails must not fail or perturb the run.
func TestMonteCarloCheckpointSaveErrorsIgnored(t *testing.T) {
	t.Parallel()

	ref, err := MonteCarlo(context.Background(), checkpointTestConfig(t, 512, 2))
	if err != nil {
		t.Fatal(err)
	}
	ck := &memCheckpointer{saveErr: errors.New("disk full")}
	cfg := checkpointTestConfig(t, 512, 2)
	cfg.Checkpointer = ck
	cfg.CheckpointEvery = 1
	st, err := MonteCarlo(context.Background(), cfg)
	if err != nil {
		t.Fatalf("failing Save surfaced: %v", err)
	}
	if statsJSON(t, st) != statsJSON(t, ref) {
		t.Fatal("failing Save perturbed the aggregate")
	}
}

// TestMonteCarloRejectsForeignCheckpoints pins that mismatched checkpoints —
// wrong trial totals, unaligned prefixes, corrupt state — are ignored and
// the run recomputes from scratch with the correct result.
func TestMonteCarloRejectsForeignCheckpoints(t *testing.T) {
	t.Parallel()

	ref, err := MonteCarlo(context.Background(), checkpointTestConfig(t, 512, 2))
	if err != nil {
		t.Fatal(err)
	}
	// Build one genuine checkpoint for a DIFFERENT trial budget plus one
	// corrupt state for the right budget.
	donor := &memCheckpointer{}
	cfgDonor := checkpointTestConfig(t, 1024, 2)
	cfgDonor.Checkpointer = donor
	cfgDonor.CheckpointEvery = 1
	if _, err := MonteCarlo(context.Background(), cfgDonor); err != nil {
		t.Fatal(err)
	}
	if len(donor.saved) == 0 {
		t.Fatal("donor run saved nothing")
	}
	bad := append([]CheckpointState(nil), donor.saved...)
	// An aligned prefix (256 of 512 is a boundary of the 2-shard plan) whose
	// state bytes are garbage: it survives alignment but must fail decoding.
	bad = append(bad, CheckpointState{
		ShardsDone: 1, TotalShards: 2, TrialsDone: 256, TotalTrials: 512,
		State: []byte{0xde, 0xad},
	})
	cfg := checkpointTestConfig(t, 512, 2)
	cfg.Checkpointer = &memCheckpointer{saved: bad}
	st, err := MonteCarlo(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if statsJSON(t, st) != statsJSON(t, ref) {
		t.Fatal("foreign checkpoints perturbed the aggregate")
	}
}
