package pmcpower

// Pipeline benchmarks: the substrate costs behind the paper's
// experiments (acquisition, training, prediction), serial against
// parallel selection and cross-validation, and the fit kernels. The
// campaigns they share are acquired once per test binary (benchData),
// so a timed body measures its own stage. The experiment reports are
// pinned by TestExperimentsGolden (internal/experiments), not timed
// here.
//
// `make bench-hotpath` runs the selection, cross-validation, training
// and kernel benchmarks with allocation counts; `make bench-noise` the
// serial campaign and pipeline; `make bench` runs all.

import (
	"sync"
	"testing"

	"pmcpower/internal/acquisition"
	"pmcpower/internal/core"
	"pmcpower/internal/mat"
	"pmcpower/internal/pmu"
	"pmcpower/internal/stats"
	"pmcpower/internal/workloads"
)

// pipelineData is the paper's pipeline up to its fits, at the
// canonical seed: all counters at the selection frequency, Algorithm
// 1's six events, and those events over the five DVFS states.
type pipelineData struct {
	selection *acquisition.Dataset
	events    []pmu.EventID
	full      *acquisition.Dataset
}

// acquirePipeline runs the pipeline up to its fits at the given
// parallelism (0 = GOMAXPROCS, 1 = serial).
func acquirePipeline(parallelism int) (*pipelineData, error) {
	const seed = 42
	sel, err := acquisition.Acquire(acquisition.Options{Seed: seed, Parallelism: parallelism}, workloads.Active(), []int{2400})
	if err != nil {
		return nil, err
	}
	steps, err := core.SelectEvents(sel.Rows, core.SelectOptions{Count: 6, Parallelism: parallelism})
	if err != nil {
		return nil, err
	}
	events := core.Events(steps)
	full, err := acquisition.Acquire(acquisition.Options{Seed: seed, Events: events, Parallelism: parallelism},
		workloads.Active(), []int{1200, 1600, 2000, 2400, 2600})
	if err != nil {
		return nil, err
	}
	return &pipelineData{selection: sel, events: events, full: full}, nil
}

var benchPipeline = sync.OnceValues(func() (*pipelineData, error) { return acquirePipeline(0) })

func benchData(b *testing.B) *pipelineData {
	b.Helper()
	d, err := benchPipeline()
	if err != nil {
		b.Fatal(err)
	}
	return d
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
	d := benchData(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Train(d.full.Rows, d.events, core.TrainOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkModelPredict(b *testing.B) {
	d := benchData(b)
	m, err := core.Train(d.full.Rows, d.events, core.TrainOptions{})
	if err != nil {
		b.Fatal(err)
	}
	row := d.full.Rows[0]
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

// BenchmarkPipelineSerial is the researcher's whole path, the one
// bench's paper-pipeline workload times, at Parallelism 1: the
// selection campaign over every counter, Algorithm 1's six events, the
// campaign of those events at five P-states, training and 10-fold
// cross-validation. The campaigns dominate it.
func BenchmarkPipelineSerial(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d, err := acquirePipeline(1)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := core.Train(d.full.Rows, d.events, core.TrainOptions{}); err != nil {
			b.Fatal(err)
		}
		cv, err := core.CrossValidateP(d.full.Rows, d.events, 10, 7, 1)
		if err != nil {
			b.Fatal(err)
		}
		if len(cv.Folds) != 10 {
			b.Fatal("wrong fold count")
		}
	}
}

func benchSelection(b *testing.B, parallelism int) {
	b.Helper()
	d := benchData(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		steps, err := core.SelectEvents(d.selection.Rows, core.SelectOptions{Count: 6, Parallelism: parallelism})
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
	d := benchData(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cv, err := core.CrossValidateP(d.full.Rows, d.events, 10, 7, parallelism)
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
	d := benchData(b)
	x, y, err := core.DesignMatrix(d.selection.Rows, d.events)
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
	d := benchData(b)
	x, y, err := core.DesignMatrix(d.full.Rows, d.events)
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
