package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"pmcpower/internal/obs"
)

func TestWorkers(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(0) = %d, want GOMAXPROCS = %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(-3) = %d, want GOMAXPROCS", got)
	}
	if got := Workers(7); got != 7 {
		t.Fatalf("Workers(7) = %d", got)
	}
}

func TestMapIndexOrder(t *testing.T) {
	const n = 100
	for _, p := range []int{1, 2, 4, 16} {
		got, err := MapCtx(context.Background(), n, p, func(_ context.Context, i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if len(got) != n {
			t.Fatalf("p=%d: len = %d", p, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("p=%d: out[%d] = %d, want %d", p, i, v, i*i)
			}
		}
	}
}

func TestMapEmptyRange(t *testing.T) {
	got, err := MapCtx(context.Background(), 0, 4, func(_ context.Context, i int) (int, error) {
		t.Fatal("fn must not be called for n=0")
		return 0, nil
	})
	if err != nil || got != nil {
		t.Fatalf("MapCtx over empty range: got %v, %v", got, err)
	}
}

func TestMapFirstErrorByIndex(t *testing.T) {
	// Every task beyond index 10 fails too, but the reported error
	// must be the lowest-indexed failure among the tasks that ran —
	// with a serial reference, exactly index 10.
	for _, p := range []int{1, 4} {
		_, err := MapCtx(context.Background(), 50, p, func(_ context.Context, i int) (int, error) {
			if i >= 10 {
				return 0, fmt.Errorf("task %d failed", i)
			}
			return i, nil
		})
		if err == nil {
			t.Fatalf("p=%d: expected error", p)
		}
		if p == 1 && err.Error() != "task 10 failed" {
			t.Fatalf("serial first error = %q, want task 10", err)
		}
	}
}

func TestMapSerialStopsAtFirstError(t *testing.T) {
	var calls int32
	sentinel := errors.New("boom")
	_, err := MapCtx(context.Background(), 20, 1, func(_ context.Context, i int) (int, error) {
		atomic.AddInt32(&calls, 1)
		if i == 3 {
			return 0, sentinel
		}
		return 0, nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
	if calls != 4 {
		t.Fatalf("serial map ran %d tasks after failure at index 3", calls)
	}
}

func TestMapCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started int32
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, err := MapCtx(ctx, 1000, 2, func(_ context.Context, i int) (int, error) {
			if atomic.AddInt32(&started, 1) == 1 {
				cancel()
			}
			return i, nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("MapCtx did not observe cancellation")
	}
	if atomic.LoadInt32(&started) == 1000 {
		t.Fatal("cancellation did not stop the sweep early")
	}
}

func TestMapBoundedConcurrency(t *testing.T) {
	const workers = 3
	var inFlight, maxSeen int32
	_, err := MapCtx(context.Background(), 64, workers, func(_ context.Context, i int) (int, error) {
		cur := atomic.AddInt32(&inFlight, 1)
		for {
			prev := atomic.LoadInt32(&maxSeen)
			if cur <= prev || atomic.CompareAndSwapInt32(&maxSeen, prev, cur) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		atomic.AddInt32(&inFlight, -1)
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if maxSeen > workers {
		t.Fatalf("observed %d concurrent tasks, cap is %d", maxSeen, workers)
	}
}

func TestMapCtxWorkerSpans(t *testing.T) {
	tracer := obs.NewTracer()
	ctx := obs.ContextWithTracer(context.Background(), tracer)
	const n, workers = 24, 4
	out, err := MapCtx(ctx, n, workers, func(ctx context.Context, i int) (int, error) {
		_, span := obs.FromContext(ctx).StartSpan(ctx, "task")
		defer span.End()
		return i * i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("slot %d = %d, want %d", i, v, i*i)
		}
	}
	spans := tracer.Spans()
	var workerSpans, taskSpans int
	workerLanes := map[int64]bool{}
	workerIDs := map[int64]bool{}
	for _, s := range spans {
		switch s.Name {
		case "parallel.worker":
			workerSpans++
			workerLanes[s.Lane] = true
			workerIDs[s.ID] = true
		case "task":
			taskSpans++
		}
	}
	if workerSpans != workers || len(workerLanes) != workers {
		t.Fatalf("got %d worker spans in %d lanes, want %d in %d", workerSpans, len(workerLanes), workers, workers)
	}
	if taskSpans != n {
		t.Fatalf("got %d task spans, want %d", taskSpans, n)
	}
	// Every task span nests under some worker span, in that worker's lane.
	for _, s := range spans {
		if s.Name == "task" {
			if !workerIDs[s.Parent] {
				t.Fatalf("task span parented to %d, not a worker span", s.Parent)
			}
			if !workerLanes[s.Lane] {
				t.Fatalf("task span in lane %d, not a worker lane", s.Lane)
			}
		}
	}
}

// TestEngineCounters asserts the default-registry task counters move
// with the engine — the numbers pmcpowerd exposes at /metrics.
func TestEngineCounters(t *testing.T) {
	before := tasksTotal.Value()
	failBefore := taskFailures.Value()
	const n = 10
	if _, err := MapCtx(context.Background(), n, 2, func(_ context.Context, i int) (int, error) { return i, nil }); err != nil {
		t.Fatal(err)
	}
	if got := tasksTotal.Value() - before; got != n {
		t.Fatalf("tasksTotal moved by %d, want %d", got, n)
	}
	sentinel := errors.New("boom")
	MapCtx(context.Background(), 1, 1, func(_ context.Context, i int) (int, error) { return 0, sentinel })
	if got := taskFailures.Value() - failBefore; got != 1 {
		t.Fatalf("taskFailures moved by %d, want 1", got)
	}
}

func TestMapWorkersPerWorkerState(t *testing.T) {
	// Each worker must receive exactly one state value from newState and
	// use it for every task it runs; results must land in index order
	// regardless of which worker computed them.
	const n = 200
	for _, p := range []int{1, 2, 4, 8} {
		var created atomic.Int32
		type scratch struct{ buf []int }
		got, err := MapWorkers(context.Background(), n, p,
			func(w int) *scratch {
				created.Add(1)
				return &scratch{buf: make([]int, 0, 4)}
			},
			func(_ context.Context, s *scratch, i int) (int, error) {
				// Reuse the scratch like the selection kernel does: the
				// result depends only on i, never on prior buffer
				// contents.
				s.buf = append(s.buf[:0], i, i)
				return s.buf[0] + s.buf[1], nil
			})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		for i, v := range got {
			if v != 2*i {
				t.Fatalf("p=%d: got[%d] = %d, want %d", p, i, v, 2*i)
			}
		}
		want := int32(Workers(p))
		if n < Workers(p) {
			want = int32(n)
		}
		if created.Load() > want {
			t.Fatalf("p=%d: newState called %d times for %d workers", p, created.Load(), want)
		}
	}
}

func TestMapWorkersDeterministicAcrossParallelism(t *testing.T) {
	// The contract MapWorkers exists to uphold: as long as tasks don't
	// smuggle results through worker state, the output is bit-identical
	// at every parallelism level.
	const n = 64
	run := func(p int) []float64 {
		out, err := MapWorkers(context.Background(), n, p,
			func(w int) []float64 { return make([]float64, 8) },
			func(_ context.Context, s []float64, i int) (float64, error) {
				for j := range s {
					s[j] = float64(i) / float64(j+1)
				}
				var sum float64
				for _, v := range s {
					sum += v
				}
				return sum, nil
			})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	serial := run(1)
	for _, p := range []int{2, 4, 0} {
		got := run(p)
		for i := range serial {
			if got[i] != serial[i] {
				t.Fatalf("p=%d: result %d differs from serial", p, i)
			}
		}
	}
}

func TestMapWorkersErrorPropagation(t *testing.T) {
	boom := errors.New("boom")
	_, err := MapWorkers(context.Background(), 50, 4,
		func(w int) int { return w },
		func(_ context.Context, _ int, i int) (int, error) {
			if i == 17 {
				return 0, boom
			}
			return i, nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("want boom, got %v", err)
	}
}
