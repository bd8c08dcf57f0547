// Package parallel is the repository's single bounded fan-out primitive.
// Every per-rank analysis stage (call-stack replay, segmentation,
// imbalance statistics, archive decoding, structural checking, linting)
// fans out through this package, so one knob — SetJobs, surfaced as the
// -j flag of the command-line tools — governs all concurrency in the
// tree.
//
// The primitives guarantee deterministic results: outputs are collected
// in index order regardless of completion order, and a failing fan-out
// reports the error of the lowest failing index — exactly what the
// equivalent serial loop would have returned. Parallel and serial runs
// of the same stage are therefore byte-identical.
//
// Every primitive has a context-aware variant (ForEachCtx, MapCtx,
// DoCtx); the collect-all ForEachAllCtx has only that one. Cancellation is observed between work items:
// once the context is done, no new index is claimed and the fan-out
// returns ctx.Err(), so a cancelled request stops burning workers as
// soon as the in-flight items finish. A cancelled fan-out does NOT
// guarantee the lowest-failing-index invariant — its partial results
// must be discarded.
package parallel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// jobsOverride holds the SetJobs cap; 0 selects the GOMAXPROCS default.
var jobsOverride atomic.Int64

// busy counts the workers currently executing a fan-out work item — the
// pool-occupancy gauge exported on perfvard's /metrics endpoint.
var busy atomic.Int64

// Jobs returns the maximal number of worker goroutines a fan-out may
// use: the SetJobs override when set, otherwise runtime.GOMAXPROCS.
func Jobs() int {
	if n := jobsOverride.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// SetJobs caps the worker count of subsequent fan-outs; n <= 0 restores
// the GOMAXPROCS default. It returns the previous override (0 meaning
// the default) so callers can restore it.
func SetJobs(n int) int {
	if n < 0 {
		n = 0
	}
	return int(jobsOverride.Swap(int64(n)))
}

// Active reports how many workers are executing a work item right now,
// across all concurrent fan-outs. It is a monitoring gauge: the value is
// naturally racy and only meaningful as a point-in-time sample.
func Active() int { return int(busy.Load()) }

// run executes item i on worker w with the occupancy gauge held.
func run(fn func(w, i int) error, w, i int) error {
	busy.Add(1)
	defer busy.Add(-1)
	return fn(w, i)
}

// ForEach runs fn(i) for every i in [0, n) on at most Jobs() worker
// goroutines and waits for all of them to exit before returning. On
// failure it returns the error of the lowest failing index regardless of
// completion order; indices above an already-failed one may be skipped,
// but every index below the reported one has run. With one worker (or
// n <= 1) it degenerates to the plain serial loop.
func ForEach(n int, fn func(i int) error) error {
	return ForEachCtx(context.Background(), n, fn)
}

// ForEachCtx is ForEach observing ctx: cancellation stops the fan-out
// between work items and is reported as ctx.Err(). A real work-item
// error at a lower index still wins over the cancellation, so
// deterministic failures stay deterministic; a cancelled run's partial
// results are otherwise unspecified.
func ForEachCtx(ctx context.Context, n int, fn func(i int) error) error {
	return forEach(ctx, n, workerCount(n), func(_, i int) error { return fn(i) })
}

// workerCount returns the number of workers a fan-out of n items starts.
func workerCount(n int) int { return max(1, min(Jobs(), n)) }

// forEach is ForEachCtx on the given number of workers, handing fn the
// index, in [0, workers), of the worker running item i.
func forEach(ctx context.Context, n, workers int, fn func(w, i int) error) error {
	if n <= 0 {
		return nil
	}
	done := ctx.Done()
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if done != nil {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			if err := run(fn, 0, i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next      atomic.Int64
		minFail   atomic.Int64
		cancelled atomic.Bool
		errs      = make([]error, n)
		wg        sync.WaitGroup
	)
	minFail.Store(int64(n))
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				if done != nil && ctx.Err() != nil {
					cancelled.Store(true)
					return
				}
				i := next.Add(1) - 1
				// Claims are handed out in increasing order, so once the
				// claimed index exceeds the lowest failure nothing this
				// worker could still do would change the outcome.
				if i >= int64(n) || i > minFail.Load() {
					return
				}
				if err := run(fn, w, int(i)); err != nil {
					errs[i] = err
					for {
						cur := minFail.Load()
						if i >= cur || minFail.CompareAndSwap(cur, i) {
							break
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	if f := minFail.Load(); f < int64(n) {
		return errs[f]
	}
	if cancelled.Load() {
		return ctx.Err()
	}
	return nil
}

// Do runs fn(i) for every i in [0, n) with no error handling — the
// fan-out flavor for stages that write results into caller-owned slots.
func Do(n int, fn func(i int)) {
	ForEach(n, func(i int) error {
		fn(i)
		return nil
	})
}

// DoCtx is Do observing ctx. It returns nil when every index ran and
// ctx.Err() when the fan-out was cut short, so callers can tell a
// complete result set from an abandoned one.
func DoCtx(ctx context.Context, n int, fn func(i int)) error {
	return ForEachCtx(ctx, n, func(i int) error {
		fn(i)
		return nil
	})
}

// DoWorkersCtx is DoCtx for items that fold into per-worker state, such
// as accumulators summed once the fan-out is done: each worker gets its
// own state from newState and runs fn(s, i) with it for the items it
// claims, so the states cost O(workers), not O(n). It returns the states,
// one per worker, or nil and ctx.Err() when the fan-out was cut short.
func DoWorkersCtx[S any](ctx context.Context, n int, newState func() S, fn func(s S, i int)) ([]S, error) {
	if n <= 0 {
		return nil, nil
	}
	states := make([]S, workerCount(n))
	for w := range states {
		states[w] = newState()
	}
	if err := forEach(ctx, n, len(states), func(w, i int) error {
		fn(states[w], i)
		return nil
	}); err != nil {
		return nil, err
	}
	return states, nil
}

// Map runs fn(i) for every i in [0, n) and collects the results in index
// order. On failure it returns nil and the lowest failing index's error.
func Map[T any](n int, fn func(i int) (T, error)) ([]T, error) {
	return MapCtx(context.Background(), n, fn)
}

// MapCtx is Map observing ctx; a cancelled fan-out returns nil results
// and ctx.Err().
func MapCtx[T any](ctx context.Context, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForEachCtx(ctx, n, func(i int) error {
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

// ForEachAllCtx runs fn(i) for every i in [0, n) — collect-all
// semantics: failures do not abort the fan-out. It returns the per-index
// errors, or nil when every call succeeded. Only ctx stops it: unclaimed
// indices after cancellation report ctx.Err() in their error slot, so
// the caller can distinguish "ran and succeeded" from "never ran".
func ForEachAllCtx(ctx context.Context, n int, fn func(i int) error) []error {
	if n <= 0 {
		return nil
	}
	done := ctx.Done()
	errs := make([]error, n)
	claimed := 0
	workers := workerCount(n)
	item := func(_, i int) error { return fn(i) }
	if workers <= 1 {
		for i := range errs {
			if done != nil && ctx.Err() != nil {
				break
			}
			errs[i] = run(item, 0, i)
			claimed++
		}
		for i := claimed; i < n; i++ {
			errs[i] = ctx.Err()
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for {
					if done != nil && ctx.Err() != nil {
						return
					}
					i := next.Add(1) - 1
					if i >= int64(n) {
						return
					}
					errs[i] = run(item, w, int(i))
				}
			}()
		}
		wg.Wait()
		if done != nil && ctx.Err() != nil {
			for i := range errs {
				if errs[i] == nil {
					// May overwrite a slot whose fn genuinely returned
					// nil after the cancellation raced in; the run is
					// abandoned either way.
					errs[i] = ctx.Err()
				}
			}
		}
	}
	for _, err := range errs {
		if err != nil {
			return errs
		}
	}
	return nil
}
