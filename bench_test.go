package pmcpower

// Pipeline benchmarks: the substrate costs behind the paper's
// experiments (acquisition, training, prediction), serial against
// parallel selection and cross-validation, and the fit kernels. Shared
// acquisition campaigns are cached in a package-level experiment
// context, so a timed body measures its own stage. The experiment
// reports are pinned by TestExperimentsGolden (internal/experiments),
// not timed here.
//
// `make bench-hotpath` runs the selection, cross-validation, training
// and kernel benchmarks with allocation counts; `make bench` runs all.

import (
	"sync"
	"testing"

	"pmcpower/internal/acquisition"
	"pmcpower/internal/core"
	"pmcpower/internal/experiments"
	"pmcpower/internal/mat"
	"pmcpower/internal/pmu"
	"pmcpower/internal/stats"
	"pmcpower/internal/workloads"
)

var (
	benchOnce sync.Once
	benchCtx  *experiments.Context
)

func sharedCtx(b *testing.B) *experiments.Context {
	b.Helper()
	benchOnce.Do(func() {
		benchCtx = experiments.NewContext(experiments.DefaultConfig())
		// Warm the cached campaigns so individual benchmarks time
		// their own stage, not the shared acquisition.
		if _, err := benchCtx.SelectionDataset(); err != nil {
			panic(err)
		}
		if _, err := benchCtx.FullDataset(); err != nil {
			panic(err)
		}
		if _, err := benchCtx.SelectedEvents(); err != nil {
			panic(err)
		}
	})
	return benchCtx
}

// --- pipeline micro-benchmarks: the substrate costs behind the
// experiments -----------------------------------------------------------

func BenchmarkAcquisitionSingleWorkload(b *testing.B) {
	events := []pmu.EventID{
		pmu.MustByName("TOT_CYC").ID,
		pmu.MustByName("TOT_INS").ID,
		pmu.MustByName("L3_TCM").ID,
	}
	wls := []*workloads.Workload{workloads.MustByName("md")}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ds, err := acquisition.Acquire(acquisition.Options{Seed: uint64(i + 1), Events: events}, wls, []int{2400})
		if err != nil {
			b.Fatal(err)
		}
		if len(ds.Rows) != 1 {
			b.Fatal("wrong row count")
		}
	}
}

func BenchmarkFullCampaign54Counters(b *testing.B) {
	// The paper's selection campaign: all workloads, all counters,
	// one frequency — the heaviest single acquisition.
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ds, err := acquisition.Acquire(acquisition.Options{Seed: uint64(i + 1)},
			workloads.Active(), []int{2400})
		if err != nil {
			b.Fatal(err)
		}
		if len(ds.Rows) == 0 {
			b.Fatal("empty dataset")
		}
	}
}

func BenchmarkModelTraining(b *testing.B) {
	ctx := sharedCtx(b)
	ds, err := ctx.FullDataset()
	if err != nil {
		b.Fatal(err)
	}
	events, err := ctx.SelectedEvents()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Train(ds.Rows, events, core.TrainOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkModelPredict(b *testing.B) {
	ctx := sharedCtx(b)
	ds, err := ctx.FullDataset()
	if err != nil {
		b.Fatal(err)
	}
	events, err := ctx.SelectedEvents()
	if err != nil {
		b.Fatal(err)
	}
	m, err := core.Train(ds.Rows, events, core.TrainOptions{})
	if err != nil {
		b.Fatal(err)
	}
	row := ds.Rows[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if p := m.Predict(row); p <= 0 {
			b.Fatal("bad prediction")
		}
	}
}

// --- parallel execution engine: serial vs parallel speedup --------------
//
// The same campaign at Parallelism 1 (serial) and 0 (all cores). The
// results are bit-identical by the determinism contract (see the
// equivalence tests); on a >= 4-core runner the parallel variants
// should report >= 2x less time per op. On a single-core runner the
// pair degenerates to equal timings.

func benchCampaign(b *testing.B, parallelism int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		ds, err := acquisition.Acquire(acquisition.Options{Seed: uint64(i + 1), Parallelism: parallelism},
			workloads.Active(), []int{1200, 2400})
		if err != nil {
			b.Fatal(err)
		}
		if len(ds.Rows) == 0 {
			b.Fatal("empty dataset")
		}
	}
}

func BenchmarkCampaignSerial(b *testing.B)   { benchCampaign(b, 1) }
func BenchmarkCampaignParallel(b *testing.B) { benchCampaign(b, 0) }

func benchSelection(b *testing.B, parallelism int) {
	b.Helper()
	ctx := sharedCtx(b)
	ds, err := ctx.SelectionDataset()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		steps, err := core.SelectEvents(ds.Rows, core.SelectOptions{Count: 6, Parallelism: parallelism})
		if err != nil {
			b.Fatal(err)
		}
		if len(steps) != 6 {
			b.Fatal("wrong step count")
		}
	}
}

func BenchmarkSelectionSerial(b *testing.B)   { benchSelection(b, 1) }
func BenchmarkSelectionParallel(b *testing.B) { benchSelection(b, 0) }

func benchCrossValidation(b *testing.B, parallelism int) {
	b.Helper()
	ctx := sharedCtx(b)
	ds, err := ctx.FullDataset()
	if err != nil {
		b.Fatal(err)
	}
	events, err := ctx.SelectedEvents()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cv, err := core.CrossValidateP(ds.Rows, events, 10, 7, parallelism)
		if err != nil {
			b.Fatal(err)
		}
		if len(cv.Folds) != 10 {
			b.Fatal("wrong fold count")
		}
	}
}

func BenchmarkCrossValidationSerial(b *testing.B)   { benchCrossValidation(b, 1) }
func BenchmarkCrossValidationParallel(b *testing.B) { benchCrossValidation(b, 0) }

// BenchmarkQRAppend contrasts the O(n·k) column-append trial fit
// against a from-scratch O(n·k²) decomposition of the same design —
// the per-candidate cost inside one selection round.
func BenchmarkQRAppend(b *testing.B) {
	ctx := sharedCtx(b)
	ds, err := ctx.SelectionDataset()
	if err != nil {
		b.Fatal(err)
	}
	events, err := ctx.SelectedEvents()
	if err != nil {
		b.Fatal(err)
	}
	x, y, err := core.DesignMatrix(ds.Rows, events)
	if err != nil {
		b.Fatal(err)
	}
	n, k := x.Rows(), x.Cols()

	b.Run("append-last-col", func(b *testing.B) {
		u := mat.NewUpdQR(n, k)
		cols := make([][]float64, k)
		for j := 0; j < k; j++ {
			cols[j] = x.Col(j)
		}
		for j := 0; j < k-1; j++ {
			u.AppendCol(cols[j])
		}
		sol := make([]float64, k)
		ybuf := make([]float64, n)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			u.Truncate(k - 1)
			u.AppendCol(cols[k-1])
			if err := u.SolveInto(sol, ybuf, y); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fresh-decompose", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			u := mat.NewUpdQR(n, k)
			u.AppendCols(x)
			if _, err := u.Solve(y); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFitKernels contrasts the R²-only fast fit against the full
// inference fit on the training design.
func BenchmarkFitKernels(b *testing.B) {
	ctx := sharedCtx(b)
	ds, err := ctx.FullDataset()
	if err != nil {
		b.Fatal(err)
	}
	events, err := ctx.SelectedEvents()
	if err != nil {
		b.Fatal(err)
	}
	x, y, err := core.DesignMatrix(ds.Rows, events)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("FitR2", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := stats.FitR2(x, y); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("FitOLS", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := stats.FitOLS(x, y, stats.OLSOptions{Estimator: stats.CovHC3}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
