// This file holds the checkpoint/resume and progress surface of the
// Monte-Carlo engine. A giant cell adds its trials to the running
// TrialAccumulator in strict trial order (parallel.ReduceOrderedFrom), so the
// total after shard j is a pure function of trials [0, hi_j) — which makes it
// safe to persist: a crashed run restored from that state and folded over the
// remaining shards finishes with aggregates bit-identical to an
// uninterrupted run. The serialized state is the accumulator's complete
// internal representation (stats/binary.go), floats as raw IEEE-754 bits,
// never a lossy summary.

package sim

import (
	"encoding/binary"
	"fmt"

	"antsearch/internal/stats"
)

// Progress reports how far a MonteCarlo fold has advanced. It is delivered
// through TrialConfig.Progress after a shard's results have been added to the
// running total, always from the single goroutine that serializes merges
// — callbacks never race each other for one run.
type Progress struct {
	// ShardsDone and TotalShards count planned shards; ShardsDone includes
	// shards restored from a checkpoint.
	ShardsDone  int
	TotalShards int
	// TrialsDone and TotalTrials count trials; TrialsDone is always a shard
	// boundary of the plan.
	TrialsDone  int
	TotalTrials int
	// ResumedShards is how many of ShardsDone were restored from a checkpoint
	// instead of computed (0 for a fresh run).
	ResumedShards int
	// Stats is a snapshot of the running aggregate over the first TrialsDone
	// trials.
	Stats TrialStats
}

// CheckpointState is one persisted prefix aggregate of a MonteCarlo run: the
// serialized running accumulator after ShardsDone of TotalShards shards,
// covering trials [0, TrialsDone) of TotalTrials.
type CheckpointState struct {
	ShardsDone  int
	TotalShards int
	TrialsDone  int
	TotalTrials int
	// State is TrialAccumulator.MarshalBinary of the running total.
	State []byte
}

// Checkpointer persists and restores prefix aggregates for one cell's run.
// Implementations are expected to be durable (internal/cache.CheckpointStore)
// but the engine only assumes two things: Save failures are the
// implementation's problem (the engine ignores the error and keeps folding —
// a full disk degrades a sweep to progress-only, it never fails it), and Load
// returns the best state the caller is willing to resume from.
type Checkpointer interface {
	// Load returns the persisted checkpoint with the largest TrialsDone for
	// which valid reports true, trying candidates in decreasing TrialsDone
	// order. ok is false when no candidate passes.
	Load(valid func(CheckpointState) bool) (cp CheckpointState, ok bool)
	// Save persists one prefix aggregate. It blocks on I/O — the engine calls
	// it from the merge goroutine, trading fold latency for durability.
	//
	//antlint:blocking
	Save(cp CheckpointState) error
}

// DefaultCheckpointEvery is the shard interval between persisted checkpoints
// when TrialConfig.CheckpointEvery is zero: with the planner's
// <= maxShardTrials-trial shards, a checkpoint lands at most every 64k
// trials — frequent enough that a crash rarely loses more than a few seconds
// of work, rare enough that the serialized state writes stay invisible next
// to the trials themselves.
const DefaultCheckpointEvery = 64

// trialAccumulatorStateVersion guards the serialized TrialAccumulator wire
// form; bump it whenever the accumulator gains, loses or reorders state. A
// state of any other version is rejected, so its run recomputes from trial 0.
const trialAccumulatorStateVersion = 2

// MarshalBinary serializes the accumulator's complete internal state: counts,
// the five Welford accumulators and both quantile sketches. The encoding is
// length-prefixed and versioned, floats travel as raw IEEE-754 bits, and
// UnmarshalBinary restores a bit-identical accumulator: folding further
// shards into the restored value produces exactly the aggregates the
// original would have produced.
func (a *TrialAccumulator) MarshalBinary() ([]byte, error) {
	b := make([]byte, 0, 1024)
	b = append(b, trialAccumulatorStateVersion)
	for _, v := range []int{a.numAgents, a.distance, a.trials, a.found, a.capped} {
		b = binary.LittleEndian.AppendUint64(b, uint64(int64(v)))
	}
	b = a.time.AppendBinary(b)
	b = a.allTime.AppendBinary(b)
	b = a.ratio.AppendBinary(b)
	b = a.survivors.AppendBinary(b)
	b = a.survivorRatio.AppendBinary(b)
	b = a.times.AppendBinary(b)
	b = a.foundTimes.AppendBinary(b)
	return b, nil
}

// UnmarshalBinary restores the state serialized by MarshalBinary. It rejects
// unknown versions, truncated or trailing bytes, and internally inconsistent
// states — including counts that disagree across fields, since Add feeds
// allTime, survivors and times once per trial and time and foundTimes once
// per found trial; on error the receiver is left unchanged.
func (a *TrialAccumulator) UnmarshalBinary(data []byte) error {
	if len(data) < 1 || data[0] != trialAccumulatorStateVersion {
		return fmt.Errorf("sim: unknown trial-accumulator state version")
	}
	b := data[1:]
	// Fresh sketches only to have non-nil pointers to decode into; DecodeBinary
	// replaces their state wholesale.
	dec := TrialAccumulator{times: stats.NewSketch(0), foundTimes: stats.NewSketch(0)}
	ints := [5]*int{&dec.numAgents, &dec.distance, &dec.trials, &dec.found, &dec.capped}
	for _, p := range ints {
		if len(b) < 8 {
			return fmt.Errorf("sim: truncated trial-accumulator state")
		}
		*p = int(int64(binary.LittleEndian.Uint64(b)))
		b = b[8:]
	}
	var err error
	for _, acc := range []interface {
		DecodeBinary([]byte) ([]byte, error)
	}{&dec.time, &dec.allTime, &dec.ratio, &dec.survivors, &dec.survivorRatio, dec.times, dec.foundTimes} {
		if b, err = acc.DecodeBinary(b); err != nil {
			return fmt.Errorf("sim: decode trial-accumulator state: %w", err)
		}
	}
	if len(b) != 0 {
		return fmt.Errorf("sim: %d trailing bytes after trial-accumulator state", len(b))
	}
	if dec.trials < 0 || dec.found < 0 || dec.capped < 0 || dec.found > dec.trials || dec.capped > dec.trials {
		return fmt.Errorf("sim: inconsistent trial-accumulator state (trials=%d, found=%d, capped=%d)",
			dec.trials, dec.found, dec.capped)
	}
	if dec.allTime.N() != dec.trials || dec.survivors.N() != dec.trials || dec.times.N() != dec.trials ||
		dec.time.N() != dec.found || dec.foundTimes.N() != dec.found ||
		dec.ratio.N() > dec.trials || dec.survivorRatio.N() > dec.trials {
		return fmt.Errorf("sim: trial-accumulator state counts disagree (trials=%d, found=%d)",
			dec.trials, dec.found)
	}
	*a = dec
	return nil
}

// alignShard returns the shard index s (1 <= s <= shards) whose range starts
// exactly at trialsDone under the (trials, shards) plan — i.e. trials
// [0, trialsDone) are precisely shards [0, s) — or -1 when trialsDone is not
// a boundary of this plan. A checkpoint written under a different plan (a
// different worker count) resumes if and only if its prefix aligns with a
// boundary of the current plan; the fold itself is sequential, so an aligned
// resume stays bit-identical even across plans.
func alignShard(trials, shards, trialsDone int) int {
	if trialsDone <= 0 || trialsDone > trials {
		return -1
	}
	if trialsDone == trials {
		return shards
	}
	// lo(s) = floor(s*trials/shards) is non-decreasing in s; the candidate
	// floor(trialsDone*shards/trials) can undershoot by one.
	s := int(int64(trialsDone) * int64(shards) / int64(trials))
	for _, c := range []int{s, s + 1} {
		if c >= 1 && c < shards {
			if lo, _ := shardRange(trials, shards, c); lo == trialsDone {
				return c
			}
		}
	}
	return -1
}

// progressStride resolves TrialConfig.ProgressEvery against a plan: positive
// values pass through, zero means every shard, and negative selects an
// automatic ~1% stride so a mega-cell reports steadily without drowning the
// consumer in per-shard updates.
func progressStride(every, shards int) int {
	switch {
	case every > 0:
		return every
	case every < 0:
		if s := shards / 128; s > 1 {
			return s
		}
		return 1
	default:
		return 1
	}
}
