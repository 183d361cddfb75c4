// Package parallel provides a small worker-pool helper used to fan
// Monte-Carlo trials out over goroutines. Results are deterministic
// regardless of the number of workers because every task derives its own
// random stream from the task index, and outputs are written to an
// index-addressed slice rather than appended in completion order.
package parallel

import (
	"context"
	"fmt"
	"runtime"
	"sync"
)

// ForEach runs fn(i) for every i in [0, n) using at most workers goroutines
// (0 means GOMAXPROCS). It stops early when the context is cancelled or when
// fn returns an error, and returns the first error encountered (in index
// order among tasks that ran). All spawned goroutines are joined before
// ForEach returns.
func ForEach(ctx context.Context, n, workers int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if fn == nil {
		return fmt.Errorf("parallel: nil task function")
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		firstIdx = n
		next     int
	)
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	claim := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if next >= n || firstErr != nil {
			return 0, false
		}
		i := next
		next++
		return i, true
	}
	record := func(i int, err error) {
		mu.Lock()
		defer mu.Unlock()
		if err != nil && (firstErr == nil || i < firstIdx) {
			firstErr = err
			firstIdx = i
			cancel()
		}
	}

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					return
				}
				i, ok := claim()
				if !ok {
					return
				}
				record(i, fn(i))
			}
		}()
	}
	wg.Wait()

	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}

// Map runs fn(i) for every i in [0, n) with at most workers goroutines and
// collects the results in index order. On error the partial results are
// discarded and the first error is returned.
func Map[T any](ctx context.Context, n, workers int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForEach(ctx, n, workers, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ReduceOrderedFrom runs fn(i) for every i in the half-open index range
// [start, n) with at most workers goroutines and streams the results into
// merge in strict index order: merge(v_start), merge(v_start+1), ... exactly
// as a sequential loop would, with merge calls serialized (never concurrent
// with each other). Unlike Map it never materializes all results: at most
// O(workers) completed-but-unmerged results are held at any moment, because
// workers claim indices in order and a claim only proceeds while it is within
// a bounded window of the merge frontier. The window cannot deadlock: the
// lowest unmerged index is always already claimed, so its completion is what
// advances the frontier and reopens the window.
//
// A start above zero serves resumable folds: a caller that restored the
// aggregate of indices [0, start) from a checkpoint continues the identical
// fold from start, and because merges stay serialized in index order the
// combined result is the one an uninterrupted [0, n) fold would have
// produced. start >= n is a no-op.
//
// Error semantics match ForEach: the first error in index order among tasks
// that ran is returned, and merge has then been called for a contiguous
// prefix of indices strictly below the failing one — callers that discard the
// accumulator on error observe no difference from Map.
func ReduceOrderedFrom[T any](ctx context.Context, start, n, workers int, fn func(i int) (T, error), merge func(v T)) error {
	if start < 0 {
		start = 0
	}
	if start >= n {
		return nil
	}
	if fn == nil || merge == nil {
		return fmt.Errorf("parallel: nil task or merge function")
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n-start {
		workers = n - start
	}
	if workers == 1 {
		// Sequential fold: no goroutines, no parking, one result in flight.
		for i := start; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			v, err := fn(i)
			if err != nil {
				return err
			}
			merge(v)
		}
		return nil
	}

	// The window is deliberately larger than the worker count so a worker
	// finishing a fast task just ahead of the frontier can claim new work
	// instead of sleeping while a slow predecessor holds everything back.
	window := 2 * workers

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		cond     = sync.NewCond(&mu)
		next     = start
		frontier = start
		pending  = make(map[int]T, window)
		firstErr error
		firstIdx = n
	)
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	// Wake any worker parked on the window condition when the context is
	// cancelled; the goroutine exits through the deferred cancel at the latest.
	stopWake := context.AfterFunc(ctx, func() {
		mu.Lock()
		defer mu.Unlock()
		cond.Broadcast()
	})
	defer stopWake()

	claim := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		for {
			if next >= n || firstErr != nil || ctx.Err() != nil {
				return 0, false
			}
			if next < frontier+window {
				i := next
				next++
				return i, true
			}
			cond.Wait()
		}
	}
	deliver := func(i int, v T, err error) {
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			if firstErr == nil || i < firstIdx {
				firstErr = err
				firstIdx = i
				cancel()
			}
			cond.Broadcast()
			return
		}
		pending[i] = v
		// Drain the contiguous run at the frontier. Only the goroutine that
		// finds pending[frontier] present merges: the entry is removed before
		// the lock drops, and the frontier does not advance until the merge
		// returns, so no other goroutine can see a mergeable entry — merge
		// calls stay serialized and ordered without holding the lock through
		// them.
		for {
			v, ok := pending[frontier]
			if !ok {
				break
			}
			delete(pending, frontier)
			mu.Unlock()
			merge(v)
			mu.Lock()
			frontier++
		}
		cond.Broadcast()
	}

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, ok := claim()
				if !ok {
					return
				}
				v, err := fn(i)
				deliver(i, v, err)
			}
		}()
	}
	wg.Wait()

	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}
