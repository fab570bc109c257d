// Package parallel provides the bounded, deterministic fan-out
// primitive used by every hot path of the modeling pipeline:
// acquisition campaigns, candidate evaluation during counter
// selection, VIF auxiliary regressions, cross-validation folds, and
// the experiment suite.
//
// The determinism contract is strict: for a fixed input, MapCtx
// produces results that are bit-identical to a serial loop over
// [0, n), regardless of the parallelism level or goroutine
// scheduling. Two rules make this hold:
//
//  1. Results are collected into a slice indexed by task number, so
//     the reduction order never depends on completion order.
//  2. Tasks must not share mutable state; any randomness must come
//     from a per-task stream derived by index or stable label (see
//     rng.Stream and rng.Rand.Split), never from a generator shared
//     across tasks.
//
// Error handling is fail-fast: the first failure cancels the shared
// context so in-flight tasks can bail out, and the error reported is
// the one with the lowest task index among the tasks that ran — the
// same error a serial loop would have surfaced whenever the failing
// task is deterministic.
package parallel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"pmcpower/internal/obs"
)

// Engine-level metrics on the shared default registry: how many tasks
// the pool has executed and how many failed. Counters are atomic
// increments off the numeric path, so they do not perturb the
// determinism contract.
var (
	tasksTotal = obs.Default().Counter("pmcpower_parallel_tasks_total",
		"Tasks executed by the parallel engine (serial and pooled).")
	taskFailures = obs.Default().Counter("pmcpower_parallel_task_failures_total",
		"Tasks that returned an error.")
	sweepsTotal = obs.Default().Counter("pmcpower_parallel_sweeps_total",
		"MapCtx and MapWorkers sweeps dispatched.")
)

// Workers resolves a Parallelism knob to a concrete worker count:
// p <= 0 means GOMAXPROCS (the conventional "use the machine"
// setting), any positive value is taken literally. Callers clamp to
// the task count themselves where it matters; MapCtx does it
// internally.
func Workers(p int) int {
	if p <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return p
}

// MapCtx runs fn(ctx, i) for every i in [0, n) on at most
// Workers(parallelism) goroutines and returns the results in index
// order. With parallelism == 1 it degenerates to a plain serial loop
// (no goroutines, immediate return on first error), which is the
// reference behavior the parallel path must reproduce bit-for-bit.
//
// A non-nil context error (cancellation, deadline) stops the sweep;
// tasks observe it between dispatches, and fn may also watch
// ctx.Done() itself for long-running bodies. fn receives a context
// derived from ctx that carries the worker's span when ctx is traced
// (see internal/obs), so spans the task opens land in that worker's
// lane of the timeline — worker utilization and load imbalance become
// visible in the exported trace. Tracing writes to a side buffer only;
// results remain bit-identical to the serial loop whether or not a
// tracer is attached.
func MapCtx[T any](ctx context.Context, n, parallelism int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	return MapWorkers(ctx, n, parallelism,
		func(int) struct{} { return struct{}{} },
		func(ctx context.Context, _ struct{}, i int) (T, error) {
			return fn(ctx, i)
		})
}

// MapWorkers is MapCtx with per-worker state: newState(w) runs once on
// each worker goroutine (serial mode runs it once with w = 0) and its
// result is handed to every task that worker executes. It exists for
// allocation-free hot loops — scratch buffers, reusable
// decompositions — that would otherwise be reallocated per task or
// contended across workers.
//
// The determinism contract is unchanged and puts one obligation on the
// caller: task results must not depend on which worker (and therefore
// which state value) ran them. State is scratch, not input — every
// byte a task reads from it must have been written by that same task.
func MapWorkers[S, T any](ctx context.Context, n, parallelism int, newState func(w int) S, fn func(ctx context.Context, state S, i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, ctx.Err()
	}
	workers := Workers(parallelism)
	if workers > n {
		workers = n
	}
	out := make([]T, n)
	tracer := obs.FromContext(ctx)
	sweepsTotal.Inc()

	if workers == 1 {
		state := newState(0)
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			tasksTotal.Inc()
			v, err := fn(ctx, state, i)
			if err != nil {
				taskFailures.Inc()
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}

	cctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		next int64 = -1
		wg   sync.WaitGroup
		mu   sync.Mutex
		errs = make(map[int]error)
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			// One lane per worker goroutine: every span a task opens
			// nests under this one, so the trace shows what each
			// worker ran and when it idled.
			wctx, wspan := tracer.StartLane(cctx, "parallel.worker", obs.Int("worker", w))
			defer wspan.End()
			state := newState(w)
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= n {
					return
				}
				if cctx.Err() != nil {
					return
				}
				tasksTotal.Inc()
				v, err := fn(wctx, state, i)
				if err != nil {
					taskFailures.Inc()
					mu.Lock()
					errs[i] = err
					mu.Unlock()
					cancel()
					return
				}
				out[i] = v
			}
		}(w)
	}
	wg.Wait()

	if len(errs) > 0 {
		first, firstErr := n, error(nil)
		for i, err := range errs {
			if i < first {
				first, firstErr = i, err
			}
		}
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
