package core

import (
	"context"
	"fmt"
	"sort"

	"pmcpower/internal/acquisition"
	"pmcpower/internal/mat"
	"pmcpower/internal/obs"
	"pmcpower/internal/parallel"
	"pmcpower/internal/pmu"
	"pmcpower/internal/rng"
	"pmcpower/internal/stats"
	"pmcpower/internal/workloads"
)

// Prediction pairs one dataset row with its out-of-sample power
// estimate — one point of the paper's Figure 5 scatter plots.
type Prediction struct {
	Row       *acquisition.Row
	Actual    float64
	Predicted float64
}

// APE returns the absolute percentage error of the prediction.
func (p Prediction) APE() float64 {
	if p.Actual == 0 {
		return 0
	}
	ape := (p.Actual - p.Predicted) / p.Actual * 100
	if ape < 0 {
		ape = -ape
	}
	return ape
}

// CVFold summarizes one fold of k-fold cross validation: the training
// fit quality and the held-out error.
type CVFold struct {
	TrainR2    float64
	TrainAdjR2 float64
	TestMAPE   float64
	// TestSkipped counts held-out observations excluded from TestMAPE
	// for near-zero actual power.
	TestSkipped int
}

// CVResult is the outcome of k-fold cross validation with random
// indexing (paper §IV-B, Table II).
type CVResult struct {
	Folds []CVFold
	// Predictions holds the out-of-fold prediction for every row —
	// each row is in exactly one test set.
	Predictions []Prediction
}

// SkippedObservations returns the total number of held-out
// observations excluded from the per-fold MAPE values for near-zero
// actuals. Reports should surface a non-zero value: a MAPE computed
// over a fraction of the data is not comparable to the paper's.
func (c *CVResult) SkippedObservations() int {
	var n int
	for _, f := range c.Folds {
		n += f.TestSkipped
	}
	return n
}

// R2Summary summarizes the per-fold training R² values (Table II row 1).
func (c *CVResult) R2Summary() stats.Summary {
	return summarize(c.Folds, func(f CVFold) float64 { return f.TrainR2 })
}

// AdjR2Summary summarizes the per-fold Adj.R² values (Table II row 2).
func (c *CVResult) AdjR2Summary() stats.Summary {
	return summarize(c.Folds, func(f CVFold) float64 { return f.TrainAdjR2 })
}

// MAPESummary summarizes the per-fold held-out MAPE values (Table II
// row 3).
func (c *CVResult) MAPESummary() stats.Summary {
	return summarize(c.Folds, func(f CVFold) float64 { return f.TestMAPE })
}

func summarize(folds []CVFold, get func(CVFold) float64) stats.Summary {
	xs := make([]float64, len(folds))
	for i, f := range folds {
		xs[i] = get(f)
	}
	return stats.Summarize(xs)
}

// OverallMAPE returns the MAPE over all out-of-fold predictions.
func (c *CVResult) OverallMAPE() float64 {
	actual := make([]float64, len(c.Predictions))
	pred := make([]float64, len(c.Predictions))
	for i, p := range c.Predictions {
		actual[i] = p.Actual
		pred[i] = p.Predicted
	}
	return stats.MAPE(actual, pred)
}

// PerWorkloadMAPE groups the out-of-fold predictions by workload and
// returns each workload's MAPE across all DVFS states — the data
// behind the paper's Figure 3.
func (c *CVResult) PerWorkloadMAPE() map[string]float64 {
	apes := make(map[string][]float64)
	for _, p := range c.Predictions {
		apes[p.Row.Workload] = append(apes[p.Row.Workload], p.APE())
	}
	out := make(map[string]float64, len(apes))
	for w, xs := range apes {
		out[w] = stats.Mean(xs)
	}
	return out
}

// CrossValidateP performs k-fold cross validation of the Equation-1
// model with the given events over the rows, shuffling with the
// supplied seed ("10-fold cross validation with random indexing"), on
// parallelism workers (0 = GOMAXPROCS, 1 = serial). The k fold fits
// are independent given the precomputed index shuffle; per-fold
// results and out-of-fold predictions are reduced in fold order, so
// the result is bit-identical at every parallelism level.
func CrossValidateP(rows []*acquisition.Row, events []pmu.EventID, k int, seed uint64, parallelism int) (*CVResult, error) {
	return CrossValidateCtx(context.Background(), rows, events, k, seed, parallelism)
}

// CrossValidateCtx is CrossValidateP under a caller context: when ctx
// carries an obs.Tracer the validation emits a "cv" span and one
// "cv-fold" span per fold, each placed in the lane of the worker that
// ran it (so fold load balance is visible in the exported timeline).
// Tracing records timing only; the CV result is bit-identical with or
// without a tracer.
func CrossValidateCtx(ctx context.Context, rows []*acquisition.Row, events []pmu.EventID, k int, seed uint64, parallelism int) (*CVResult, error) {
	if len(rows) < k {
		return nil, fmt.Errorf("core: %d rows cannot form %d folds", len(rows), k)
	}
	folds, err := stats.KFold(len(rows), k, rng.New(seed))
	if err != nil {
		return nil, fmt.Errorf("core: cross validation: %w", err)
	}
	ctx, cvSpan := obs.FromContext(ctx).StartSpan(ctx, "cv",
		obs.Int("folds", k), obs.Int("rows", len(rows)))
	defer cvSpan.End()

	// Every fold trains on rows of one design: build it once, before
	// the fan-out; the folds only read it.
	x, y, err := DesignMatrix(rows, events)
	if err != nil {
		return nil, err
	}

	type foldResult struct {
		cf    CVFold
		preds []Prediction
	}
	results, err := parallel.MapCtx(ctx, len(folds), parallelism, func(ctx context.Context, fi int) (foldResult, error) {
		_, foldSpan := obs.FromContext(ctx).StartSpan(ctx, "cv-fold", obs.Int("fold", fi))
		defer foldSpan.End()
		fold := folds[fi]
		xtr, ytr := gatherRows(x, y, fold.Train)
		fit, preds, ape, err := fitAndScore(xtr, ytr, events, subset(rows, fold.Test))
		if err != nil {
			return foldResult{}, fmt.Errorf("core: fold %d: %w", fi, err)
		}
		return foldResult{
			cf:    CVFold{TrainR2: fit.R2, TrainAdjR2: fit.AdjR2, TestMAPE: ape.MAPE, TestSkipped: ape.Skipped},
			preds: preds,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	res := &CVResult{}
	for _, fr := range results {
		res.Folds = append(res.Folds, fr.cf)
		res.Predictions = append(res.Predictions, fr.preds...)
	}
	return res, nil
}

func subset(rows []*acquisition.Row, idx []int) []*acquisition.Row {
	out := make([]*acquisition.Row, len(idx))
	for i, j := range idx {
		out[i] = rows[j]
	}
	return out
}

// gatherRows returns rows idx of the design x and its target y.
func gatherRows(x *mat.Matrix, y []float64, idx []int) (*mat.Matrix, []float64) {
	gx := mat.New(len(idx), x.Cols())
	gy := make([]float64, len(idx))
	for i, j := range idx {
		copy(gx.RowView(i), x.RowView(j))
		gy[i] = y[j]
	}
	return gx, gy
}

// fitAndScore fits Equation 1 to the training design (x, y) on the
// R²-only kernel, whose coefficients and R²/Adj.R² are bit-identical to
// a full FitOLS, and scores the fitted model's predictions of the test
// rows. Cross-validation folds and the scenario holdouts both score
// here, each under its own error prefix.
func fitAndScore(x *mat.Matrix, y []float64, events []pmu.EventID, test []*acquisition.Row) (*stats.FitR2Result, []Prediction, stats.APEStats, error) {
	fit, err := stats.FitR2(x, y)
	if err != nil {
		return nil, nil, stats.APEStats{}, fmt.Errorf("core: training failed for events %v: %w", pmu.ShortNames(events), err)
	}
	pred := modelFromCoeffs(events, fit.Coeffs, nil).PredictAll(test)
	actual := make([]float64, len(test))
	preds := make([]Prediction, len(test))
	for i, r := range test {
		actual[i] = r.PowerW
		preds[i] = Prediction{Row: r, Actual: r.PowerW, Predicted: pred[i]}
	}
	ape, err := stats.APEDetail(actual, pred)
	if err != nil {
		return nil, nil, stats.APEStats{}, err
	}
	return fit, preds, ape, nil
}

// ScenarioResult is the outcome of one of the paper's four validation
// scenarios (§IV-B, Figure 4).
type ScenarioResult struct {
	Name           string
	TrainWorkloads []string
	TrainRows      int
	TestRows       int
	MAPE           float64
	// Skipped counts test observations excluded from MAPE for
	// near-zero actual power (see stats.APEDetail).
	Skipped     int
	Predictions []Prediction
}

// Scenario1 trains on four random workloads — two drawn from each
// suite, so the training set spans both synthetic kernels and
// application behaviour — and validates on the rest.
func Scenario1(ds *acquisition.Dataset, events []pmu.EventID, seed uint64) (*ScenarioResult, error) {
	var synth, spec []string
	for _, w := range ds.Workloads() {
		isSpec := false
		for _, row := range ds.Rows {
			if row.Workload == w {
				isSpec = row.Class == workloads.SPEC
				break
			}
		}
		if isSpec {
			spec = append(spec, w)
		} else {
			synth = append(synth, w)
		}
	}
	if len(synth) < 2 || len(spec) < 2 || len(synth)+len(spec) <= 4 {
		return nil, fmt.Errorf("core: scenario 1 needs more than 4 workloads across both suites (have %d+%d)", len(synth), len(spec))
	}
	r := rng.New(seed)
	train := map[string]bool{}
	var trainNames []string
	for _, pool := range [][]string{synth, spec} {
		perm := r.Perm(len(pool))
		for _, i := range perm[:2] {
			train[pool[i]] = true
			trainNames = append(trainNames, pool[i])
		}
	}
	sort.Strings(trainNames)
	trainDS := ds.Filter(func(row *acquisition.Row) bool { return train[row.Workload] })
	testDS := ds.Filter(func(row *acquisition.Row) bool { return !train[row.Workload] })
	return holdout("scenario 1: four random workloads", trainNames, trainDS.Rows, testDS.Rows, events)
}

// Scenario2 trains on all synthetic (roco2) workloads and validates on
// all SPEC OMP2012 workloads — the paper's worst case ("the synthetic
// workloads are not diverse enough to create a stable model").
func Scenario2(ds *acquisition.Dataset, events []pmu.EventID) (*ScenarioResult, error) {
	trainDS := ds.ByClass(workloads.Synthetic)
	testDS := ds.ByClass(workloads.SPEC)
	return holdout("scenario 2: train synthetic, validate SPEC", trainDS.Workloads(), trainDS.Rows, testDS.Rows, events)
}

// Scenario4 is 10-fold cross validation over the synthetic workload
// experiments only — the paper's most accurate but least realistic
// case — on parallelism workers (0 = GOMAXPROCS, 1 = serial).
// Scenario 3, the same over all experiments, is CrossValidateP itself.
func Scenario4(ds *acquisition.Dataset, events []pmu.EventID, seed uint64, parallelism int) (*ScenarioResult, error) {
	syn := ds.ByClass(workloads.Synthetic)
	cv, err := CrossValidateP(syn.Rows, events, 10, seed, parallelism)
	if err != nil {
		return nil, err
	}
	return &ScenarioResult{
		Name:        "scenario 4: 10-fold CV on synthetic experiments",
		TrainRows:   len(syn.Rows),
		TestRows:    len(syn.Rows),
		MAPE:        cv.MAPESummary().Mean,
		Skipped:     cv.SkippedObservations(),
		Predictions: cv.Predictions,
	}, nil
}

func holdout(name string, trainNames []string, trainRows, testRows []*acquisition.Row, events []pmu.EventID) (*ScenarioResult, error) {
	if len(trainRows) == 0 || len(testRows) == 0 {
		return nil, fmt.Errorf("core: %s: empty train (%d) or test (%d) set", name, len(trainRows), len(testRows))
	}
	x, y, err := DesignMatrix(trainRows, events)
	if err != nil {
		return nil, fmt.Errorf("core: %s: %w", name, err)
	}
	_, preds, ape, err := fitAndScore(x, y, events, testRows)
	if err != nil {
		return nil, fmt.Errorf("core: %s: %w", name, err)
	}
	return &ScenarioResult{
		Name:           name,
		TrainWorkloads: trainNames,
		TrainRows:      len(trainRows),
		TestRows:       len(testRows),
		MAPE:           ape.MAPE,
		Skipped:        ape.Skipped,
		Predictions:    preds,
	}, nil
}
