// This file holds the checkpoint tier of the durable store: mid-cell prefix
// aggregates (sim.CheckpointState) persisted while a mega-cell is still
// running, so a crashed or killed process resumes the fold instead of
// restarting it. It reuses the result store's machinery — an append-only
// NDJSON log compacted into a snapshot under an flock-claimed directory —
// with its own files and schema, so a CheckpointStore can share a directory
// with a DiskStore. Unlike results, checkpoints are disposable: any record
// may be dropped at any time (the worst outcome is recomputation), which is
// why every error path here degrades instead of failing and why a cell's
// checkpoints are garbage-collected the moment its final aggregate lands in
// the result store.

package cache

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"antsearch/internal/sim"
)

// CheckpointSchemaVersion is the version stamped on every persisted
// checkpoint record; records carrying a different version are skipped on
// load. Bump it whenever the record wire form or the serialized accumulator
// state (sim's trialAccumulatorStateVersion, stats' binary codec) changes —
// the state bytes are opaque here, so this version is the only load-time
// guard against feeding a new decoder an old state.
const CheckpointSchemaVersion = 2

// maxCheckpointsPerCell bounds how many distinct prefixes the in-memory
// index keeps per cell (the largest survive). One would suffice for
// same-plan resumes; keeping a few gives a resume under a different worker
// count — whose shard boundaries differ — a fallback prefix to align with.
const maxCheckpointsPerCell = 8

// checkpointRecord is the NDJSON wire form of one persisted checkpoint. The
// state travels base64-encoded (encoding/json's []byte convention) with an
// explicit length so a damaged or truncated encoding is detected by
// comparison, not silently decoded into a short state that then fails —
// or worse, passes — the accumulator decoder.
//
//antlint:codec version=CheckpointSchemaVersion fields=SchemaVersion,Key,ShardsDone,TotalShards,TrialsDone,TotalTrials,StateLen,State
//antlint:wire
type checkpointRecord struct {
	SchemaVersion int    `json:"schema_version"`
	Key           Key    `json:"key"`
	ShardsDone    int    `json:"shards_done"`
	TotalShards   int    `json:"total_shards"`
	TrialsDone    int    `json:"trials_done"`
	TotalTrials   int    `json:"total_trials"`
	StateLen      int    `json:"state_len"`
	State         []byte `json:"state"`
}

const (
	checkpointLogFile      = "checkpoints.ndjson"
	checkpointSnapshotFile = "checkpoints-snapshot.ndjson"
	checkpointLockFile     = "checkpoints.lock"
)

// CheckpointStats is a snapshot of the checkpoint tier's counters.
type CheckpointStats struct {
	// Saved counts checkpoint records successfully appended.
	Saved uint64 `json:"saved"`
	// ResumedRuns counts Load calls that handed a usable checkpoint to a
	// resuming fold.
	ResumedRuns uint64 `json:"resumed_runs"`
	// ResumedShards totals the shards those checkpoints covered (as counted
	// under the plan that wrote them) — work a crash did not cost twice.
	ResumedShards uint64 `json:"resumed_shards"`
	// Pruned counts checkpoint records garbage-collected because their cell's
	// final aggregate landed in the result store.
	Pruned uint64 `json:"pruned"`
	// StoreErrors counts failed appends and compactions. Checkpointing
	// degrades to progress-only on persistent errors; this counter is how
	// that surfaces.
	StoreErrors uint64 `json:"store_errors"`
	// Cells is the number of cells currently holding checkpoints.
	Cells int `json:"cells"`
}

// CheckpointStore persists mid-cell prefix aggregates. It implements the
// storage side of sim.Checkpointer; ForCell binds it to one cell's key. Safe
// for concurrent use by multiple in-flight sweeps.
type CheckpointStore struct {
	mu     sync.Mutex
	dir    string
	log    *os.File
	lock   *os.File
	closed bool
	// index holds, per cell, the persisted checkpoints sorted by ascending
	// TrialsDone (largest — the preferred resume point — last), capped at
	// maxCheckpointsPerCell.
	index map[Key][]sim.CheckpointState

	saved, resumedRuns, resumedShards, pruned, storeErrors uint64
}

// OpenCheckpointStore opens (creating if needed) the checkpoint tier rooted
// at dir and warm-starts its index from the persisted log and snapshot. The
// directory is claimed with its own exclusive lock (separate from the result
// store's), so a result DiskStore and a CheckpointStore may share dir.
func OpenCheckpointStore(dir string) (*CheckpointStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cache: open checkpoint store: %w", err)
	}
	lock, err := claimDirLock(dir, checkpointLockFile)
	if err != nil {
		return nil, fmt.Errorf("cache: checkpoint directory %s is already in use by another process: %w", dir, err)
	}
	sweepOrphans(dir, checkpointSnapshotFile+".tmp-*")
	log, err := os.OpenFile(filepath.Join(dir, checkpointLogFile), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		lock.Close() //antlint:allow storeerr open failed; the claim is being abandoned, nothing acknowledged can be lost
		return nil, fmt.Errorf("cache: open checkpoint log: %w", err)
	}
	s := &CheckpointStore{dir: dir, log: log, lock: lock, index: make(map[Key][]sim.CheckpointState)}
	for _, name := range []string{checkpointSnapshotFile, checkpointLogFile} {
		if err := s.loadFile(filepath.Join(dir, name)); err != nil {
			log.Close() //antlint:allow storeerr open failed; best-effort cleanup of both handles, the load error propagates
			lock.Close()
			return nil, err
		}
	}
	return s, nil
}

// loadFile replays one NDJSON file into the index. Unparseable lines (torn
// tails, damaged records) and foreign schema versions are skipped: a damaged
// checkpoint costs recomputation, never an error.
func (s *CheckpointStore) loadFile(path string) error {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("cache: load checkpoint store: %w", err)
	}
	defer f.Close() //antlint:allow storeerr read-only handle; a close failure cannot lose data
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<24)
	for sc.Scan() {
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var rec checkpointRecord
		if err := json.Unmarshal(line, &rec); err != nil || !recordUsable(rec) {
			continue
		}
		s.insertLocked(rec.Key, sim.CheckpointState{
			ShardsDone:  rec.ShardsDone,
			TotalShards: rec.TotalShards,
			TrialsDone:  rec.TrialsDone,
			TotalTrials: rec.TotalTrials,
			State:       rec.State,
		})
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("cache: load checkpoint store %s: %w", filepath.Base(path), err)
	}
	return nil
}

// recordUsable filters loaded records: current schema, internally consistent
// bounds, and state bytes matching their declared length.
func recordUsable(rec checkpointRecord) bool {
	return rec.SchemaVersion == CheckpointSchemaVersion &&
		rec.Key.CurrentSchema() &&
		rec.TrialsDone > 0 && rec.TrialsDone <= rec.TotalTrials &&
		rec.ShardsDone > 0 && rec.ShardsDone <= rec.TotalShards &&
		len(rec.State) == rec.StateLen && rec.StateLen > 0
}

// insertLocked merges one checkpoint into a cell's candidate list, keeping
// the list sorted by TrialsDone, deduplicated (a replayed log and snapshot
// may repeat records; the later write wins), and capped at the largest
// maxCheckpointsPerCell prefixes. Callers either hold s.mu or run during the
// single-threaded open.
func (s *CheckpointStore) insertLocked(key Key, cp sim.CheckpointState) {
	list := s.index[key]
	at := sort.Search(len(list), func(i int) bool { return list[i].TrialsDone >= cp.TrialsDone })
	if at < len(list) && list[at].TrialsDone == cp.TrialsDone {
		list[at] = cp
	} else {
		list = append(list, sim.CheckpointState{})
		copy(list[at+1:], list[at:])
		list[at] = cp
	}
	if len(list) > maxCheckpointsPerCell {
		list = append(list[:0], list[len(list)-maxCheckpointsPerCell:]...)
	}
	s.index[key] = list
}

// save appends one checkpoint for key to the log and indexes it.
//
//antlint:blocking
func (s *CheckpointStore) save(key Key, cp sim.CheckpointState) error {
	line, err := json.Marshal(checkpointRecord{
		SchemaVersion: CheckpointSchemaVersion,
		Key:           key,
		ShardsDone:    cp.ShardsDone,
		TotalShards:   cp.TotalShards,
		TrialsDone:    cp.TrialsDone,
		TotalTrials:   cp.TotalTrials,
		StateLen:      len(cp.State),
		State:         cp.State,
	})
	if err != nil {
		return fmt.Errorf("cache: save checkpoint: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		s.storeErrors++
		return fmt.Errorf("cache: save checkpoint to closed store")
	}
	// A leading newline terminates any torn tail a previous failed write left
	// behind; empty lines are skipped on load, so it costs one byte.
	if _, err := s.log.Write(append(append([]byte{'\n'}, line...), '\n')); err != nil {
		s.storeErrors++
		return fmt.Errorf("cache: save checkpoint: %w", err)
	}
	s.insertLocked(key, cp)
	s.saved++
	return nil
}

// load hands the resuming fold its best usable checkpoint: candidates for
// key are tried in decreasing TrialsDone order against valid (which checks
// plan alignment and decodes the state — see sim.MonteCarlo's resume).
func (s *CheckpointStore) load(key Key, valid func(sim.CheckpointState) bool) (sim.CheckpointState, bool) {
	s.mu.Lock()
	candidates := append([]sim.CheckpointState(nil), s.index[key]...)
	s.mu.Unlock()
	// Decoding runs off the lock: valid() replays accumulator state, and a
	// concurrent sweep must not stall behind it.
	for i := len(candidates) - 1; i >= 0; i-- {
		if valid(candidates[i]) {
			s.mu.Lock()
			s.resumedRuns++
			s.resumedShards += uint64(candidates[i].ShardsDone)
			s.mu.Unlock()
			return candidates[i], true
		}
	}
	return sim.CheckpointState{}, false
}

// Prune garbage-collects every checkpoint whose cell done reports finished —
// typically cache.Contains of the result cache: once the final aggregate is
// durable, the cell's prefixes are dead weight. When anything was dropped the
// surviving index is compacted to disk (snapshot + truncated log), bounding
// the log's growth across sweep generations. It returns the number of
// checkpoint records pruned.
func (s *CheckpointStore) Prune(done func(Key) bool) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0
	}
	removed := 0
	for key, list := range s.index { //antlint:allow maporder a count and a set of deletions are order-independent
		if done(key) {
			removed += len(list)
			delete(s.index, key)
		}
	}
	if removed > 0 {
		s.pruned += uint64(removed)
		if err := s.compactLocked(); err != nil {
			s.storeErrors++
		}
	}
	return removed
}

// compactLocked rewrites the snapshot from the live index and truncates the
// log — the same temp-file-then-rename dance as the result store, so every
// crash point leaves a loadable state. The caller holds s.mu.
func (s *CheckpointStore) compactLocked() error {
	err := writeAtomicSnapshot(s.dir, checkpointSnapshotFile, func(enc *json.Encoder) error {
		keys := make([]string, 0, len(s.index))
		for key := range s.index { //antlint:allow maporder keys are sorted before use below
			keys = append(keys, string(key))
		}
		sort.Strings(keys) // deterministic file layout
		for _, key := range keys {
			for _, cp := range s.index[Key(key)] {
				rec := checkpointRecord{
					SchemaVersion: CheckpointSchemaVersion,
					Key:           Key(key),
					ShardsDone:    cp.ShardsDone,
					TotalShards:   cp.TotalShards,
					TrialsDone:    cp.TrialsDone,
					TotalTrials:   cp.TotalTrials,
					StateLen:      len(cp.State),
					State:         cp.State,
				}
				if err := enc.Encode(rec); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("cache: compact checkpoints: %w", err)
	}
	if err := s.log.Truncate(0); err != nil {
		return fmt.Errorf("cache: compact checkpoints: truncate log: %w", err)
	}
	return nil
}

// Stats snapshots the counters.
func (s *CheckpointStore) Stats() CheckpointStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return CheckpointStats{
		Saved:         s.saved,
		ResumedRuns:   s.resumedRuns,
		ResumedShards: s.resumedShards,
		Pruned:        s.pruned,
		StoreErrors:   s.storeErrors,
		Cells:         len(s.index),
	}
}

// Close compacts the surviving checkpoints and releases the directory lock.
func (s *CheckpointStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	compactErr := s.compactLocked()
	if compactErr != nil {
		s.storeErrors++
	}
	s.closed = true
	err := s.log.Close()
	if cerr := s.lock.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = compactErr
	}
	return err
}

// cellCheckpointDisableAfter is how many consecutive Save failures a cell's
// checkpointer tolerates before it stops writing for the rest of its run: a
// persistently full disk should slow a sweep by zero checkpoints, not by a
// failed write per interval. The store itself stays open — the next cell
// starts with fresh credit, so a transient outage does not silence
// checkpointing forever.
const cellCheckpointDisableAfter = 3

// cellCheckpointer binds a CheckpointStore to one cell's key, implementing
// sim.Checkpointer. Each MonteCarlo run gets its own value (ForCell), so the
// consecutive-failure budget is per run, and the engine's single merge
// goroutine is the only Save caller — no locking needed on fails.
type cellCheckpointer struct {
	store *CheckpointStore
	key   Key
	fails int
}

// ForCell returns the sim.Checkpointer persisting key's prefixes in s. Hand
// the result to sim.TrialConfig.Checkpointer (via scenario.Runner).
func (s *CheckpointStore) ForCell(key Key) sim.Checkpointer {
	return &cellCheckpointer{store: s, key: key}
}

// Load implements sim.Checkpointer.
func (c *cellCheckpointer) Load(valid func(sim.CheckpointState) bool) (sim.CheckpointState, bool) {
	return c.store.load(c.key, valid)
}

// Save implements sim.Checkpointer. After cellCheckpointDisableAfter
// consecutive failures it degrades to a no-op for the rest of the run; any
// success resets the budget.
//
//antlint:blocking
func (c *cellCheckpointer) Save(cp sim.CheckpointState) error {
	if c.fails >= cellCheckpointDisableAfter {
		return nil
	}
	if err := c.store.save(c.key, cp); err != nil {
		c.fails++
		return err
	}
	c.fails = 0
	return nil
}
