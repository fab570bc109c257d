# Convenience targets for the pmcpower reproduction.

GO ?= go

.PHONY: all build vet test race verify bench bench-hotpath bench-rls bench-noise report trace-demo clean

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

# The streaming-refit path: the row update kernel, and one labelled
# sample through a primed refitting session.
bench-rls:
	$(GO) test -run XXX -benchmem -benchtime=20x \
		-bench 'BenchmarkRowQRAppendRow|BenchmarkStreamSessionPushLabeledRefit$$' \
		./internal/mat ./internal/core

# The campaign's read-out noise: one scalar normal draw and blocks of
# jitters at the lengths the campaign draws, 24, 25, 480 and 2000
# (ns/draw; each name says which path ran, avx2 or go), then the
# serial two-frequency campaign that draws them and the serial pipeline
# (both campaigns, selection, training and CV) around it.
bench-noise:
	$(GO) test -run XXX -cpu 1 -bench 'BenchmarkNorm$$|BenchmarkJitterInto' ./internal/rng
	$(GO) test -run XXX -cpu 1 -benchmem -benchtime=10x -bench 'BenchmarkCampaignSerial$$|BenchmarkPipelineSerial$$' .

# Text report of every table and figure.
report:
	$(GO) run ./cmd/expreport

# Run the full pipeline with span tracing enabled and validate the
# exported Chrome trace JSON (open trace-demo.json in Perfetto).
trace-demo:
	$(GO) run ./cmd/powermodel -counters 3 -folds 5 -j 2 -trace trace-demo.json
	$(GO) run ./cmd/tracecheck -require powermodel,acquire,selection,fit,cv,cv-fold,parallel.worker trace-demo.json

clean:
	$(GO) clean ./...
