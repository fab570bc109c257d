# Convenience targets for the pmcpower reproduction.

GO ?= go

.PHONY: all build vet test race verify bench bench-hotpath bench-rls report examples trace-demo clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Race-detector run of the whole tree — the concurrent pipeline
# (internal/parallel and its call sites) must stay race-free.
race:
	$(GO) test -race ./...

# The full tier-1 gate for concurrent code: build, vet, tests, the
# race detector, and the streaming-refit microbenchmarks (which carry
# their own allocation gates in test form; the bench run here catches
# order-of-magnitude regressions by inspection).
verify: build vet test race bench-rls

# Every benchmark with allocation counts: the pipeline stages and fit
# kernels at the root, and each package's kernels. The experiment
# reports are pinned by TestExperimentsGolden, not timed.
bench:
	$(GO) test -bench=. -benchmem ./...

# The selection/CV/training hot path only, with allocation counts.
bench-hotpath:
	$(GO) test -run XXX -benchmem -benchtime=20x \
		-bench 'BenchmarkModelTraining$$|BenchmarkSelectionSerial$$|BenchmarkSelectionParallel$$|BenchmarkCrossValidationSerial$$|BenchmarkCrossValidationParallel$$|BenchmarkQRAppend|BenchmarkFitKernels' .

# The streaming-refit path: per-sample RLS update vs batch window
# refit.
bench-rls:
	$(GO) test -run XXX -benchmem -benchtime=20x \
		-bench 'BenchmarkRowQRAppendRow|BenchmarkRLSPush$$|BenchmarkRLSPushSolve$$|BenchmarkRLSBatchRefit$$' \
		./internal/mat ./internal/stats

# Text report of every table and figure.
report:
	$(GO) run ./cmd/expreport

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/counter_selection
	$(GO) run ./examples/dvfs_sweep
	$(GO) run ./examples/unseen_workloads
	$(GO) run ./examples/online_monitor
	$(GO) run ./examples/percore_power

# Run the full pipeline with span tracing enabled and validate the
# exported Chrome trace JSON (open trace-demo.json in Perfetto).
trace-demo:
	$(GO) run ./cmd/powermodel -counters 3 -folds 5 -j 2 -trace trace-demo.json
	$(GO) run ./cmd/tracecheck -require powermodel,acquire,selection,fit,cv,cv-fold,parallel.worker trace-demo.json

# The outputs recorded in the repository.
outputs:
	$(GO) test ./... 2>&1 | tee test_output.txt
	$(GO) test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt

clean:
	$(GO) clean ./...
