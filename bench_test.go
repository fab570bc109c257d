package pmcpower

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (experiment ids E1–E13, see DESIGN.md). Each benchmark
// regenerates its artifact end to end; shared acquisition campaigns
// are cached in a package-level experiment context so the timed body
// measures the experiment itself rather than repeated acquisition.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// The rendered rows/series (the paper-facing output) are emitted via
// b.Log — visible with -v — and recorded in EXPERIMENTS.md.

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
		// their experiment, not the shared acquisition.
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

func logOnce(b *testing.B, i int, render func() (string, error)) {
	b.Helper()
	if i != 0 {
		return
	}
	out, err := render()
	if err != nil {
		b.Fatal(err)
	}
	b.Log("\n" + out)
}

func BenchmarkE01_TableI_Selection(b *testing.B) {
	ctx := sharedCtx(b)
	ds, err := ctx.SelectionDataset()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		steps, err := core.SelectEvents(ds.Rows, core.SelectOptions{Count: 6})
		if err != nil {
			b.Fatal(err)
		}
		if len(steps) != 6 {
			b.Fatal("wrong step count")
		}
		logOnce(b, i, ctx.RenderTableI)
	}
}

func BenchmarkE02_Fig2_R2Progression(b *testing.B) {
	ctx := sharedCtx(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts, err := ctx.Fig2()
		if err != nil {
			b.Fatal(err)
		}
		if len(pts) != 6 {
			b.Fatal("wrong point count")
		}
		logOnce(b, i, ctx.RenderFig2)
	}
}

func BenchmarkE03_TableII_CV(b *testing.B) {
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
		cv, err := core.CrossValidate(ds.Rows, events, 10, 7)
		if err != nil {
			b.Fatal(err)
		}
		if len(cv.Folds) != 10 {
			b.Fatal("wrong fold count")
		}
		logOnce(b, i, ctx.RenderTableII)
	}
}

func BenchmarkE04_Fig3_PerWorkloadMAPE(b *testing.B) {
	ctx := sharedCtx(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bars, err := ctx.Fig3()
		if err != nil {
			b.Fatal(err)
		}
		if len(bars) != 16 {
			b.Fatal("wrong bar count")
		}
		logOnce(b, i, ctx.RenderFig3)
	}
}

func BenchmarkE05_Fig4_Scenarios(b *testing.B) {
	ctx := sharedCtx(b)
	ds, err := ctx.FullDataset()
	if err != nil {
		b.Fatal(err)
	}
	events, err := ctx.SelectedEvents()
	if err != nil {
		b.Fatal(err)
	}
	cfg := ctx.Config()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Scenario1(ds, events, cfg.Scenario1Seed); err != nil {
			b.Fatal(err)
		}
		if _, err := core.Scenario2(ds, events); err != nil {
			b.Fatal(err)
		}
		if _, err := core.Scenario3(ds, events, cfg.CVSeed); err != nil {
			b.Fatal(err)
		}
		if _, err := core.Scenario4(ds, events, cfg.CVSeed); err != nil {
			b.Fatal(err)
		}
		logOnce(b, i, ctx.RenderFig4)
	}
}

func BenchmarkE06_Fig5a_Scatter(b *testing.B) {
	ctx := sharedCtx(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		preds, err := ctx.Fig5a()
		if err != nil {
			b.Fatal(err)
		}
		if len(preds) == 0 {
			b.Fatal("no predictions")
		}
		logOnce(b, i, ctx.RenderFig5a)
	}
}

func BenchmarkE07_Fig5b_Scatter(b *testing.B) {
	ctx := sharedCtx(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		preds, err := ctx.Fig5b()
		if err != nil {
			b.Fatal(err)
		}
		if len(preds) == 0 {
			b.Fatal("no predictions")
		}
		logOnce(b, i, ctx.RenderFig5b)
	}
}

func BenchmarkE08_TableIII_PCC(b *testing.B) {
	ctx := sharedCtx(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := ctx.TableIII()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 6 {
			b.Fatal("wrong row count")
		}
		logOnce(b, i, ctx.RenderTableIII)
	}
}

func BenchmarkE09_Fig6_AllPCC(b *testing.B) {
	ctx := sharedCtx(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := ctx.Fig6()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != pmu.NumEvents() {
			b.Fatal("wrong row count")
		}
		logOnce(b, i, ctx.RenderFig6)
	}
}

func BenchmarkE10_TableIV_SyntheticSelection(b *testing.B) {
	ctx := sharedCtx(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := ctx.TableIV()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 6 {
			b.Fatal("wrong row count")
		}
		logOnce(b, i, ctx.RenderTableIV)
	}
}

func BenchmarkE11_SeventhCounterVIF(b *testing.B) {
	ctx := sharedCtx(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ext, err := ctx.ExtendedSelection(11)
		if err != nil {
			b.Fatal(err)
		}
		if ext.ExplodeAt == 0 {
			b.Fatal("VIF never exploded")
		}
		logOnce(b, i, func() (string, error) { return ctx.RenderSeventh(11) })
	}
}

func BenchmarkE12_Ablations(b *testing.B) {
	ctx := sharedCtx(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctx.AblationRateNormalization(); err != nil {
			b.Fatal(err)
		}
		if _, err := ctx.AblationHCSE(); err != nil {
			b.Fatal(err)
		}
		if _, err := ctx.AblationCycleInit(); err != nil {
			b.Fatal(err)
		}
		logOnce(b, i, ctx.RenderAblations)
	}
}

func BenchmarkE13_Baselines(b *testing.B) {
	ctx := sharedCtx(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := ctx.Baselines()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 4 {
			b.Fatal("wrong baseline count")
		}
		logOnce(b, i, ctx.RenderBaselines)
	}
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

func BenchmarkE14_StrategyComparison(b *testing.B) {
	ctx := sharedCtx(b)
	if _, err := ctx.FullAllCounterDataset(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := ctx.StrategyComparison()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 5 {
			b.Fatal("wrong strategy count")
		}
		logOnce(b, i, ctx.RenderStrategies)
	}
}

func BenchmarkE15_TransformationSearch(b *testing.B) {
	ctx := sharedCtx(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := ctx.TransformationSearch()
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Candidates) == 0 {
			b.Fatal("no candidates")
		}
		logOnce(b, i, ctx.RenderTransformations)
	}
}

func BenchmarkBreuschPagan(b *testing.B) {
	ctx := sharedCtx(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bp, err := ctx.HeteroscedasticityTest()
		if err != nil {
			b.Fatal(err)
		}
		if bp.LM <= 0 {
			b.Fatal("bad LM")
		}
	}
}

func BenchmarkE16_BootstrapStability(b *testing.B) {
	ctx := sharedCtx(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := ctx.BootstrapStability()
		if err != nil {
			b.Fatal(err)
		}
		if rep.Full.Replicates < 100 {
			b.Fatal("too few replicates")
		}
		logOnce(b, i, ctx.RenderStability)
	}
}

func BenchmarkE17_CrossPlatform(b *testing.B) {
	ctx := sharedCtx(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := ctx.CrossPlatform()
		if err != nil {
			b.Fatal(err)
		}
		if rep.ARMMAPE <= 0 {
			b.Fatal("bad ARM MAPE")
		}
		logOnce(b, i, ctx.RenderCrossPlatform)
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
