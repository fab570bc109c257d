package core

import (
	"math"
	"sync"
	"testing"

	"pmcpower/internal/acquisition"
	"pmcpower/internal/pmu"
	"pmcpower/internal/stats"
	"pmcpower/internal/workloads"
)

// Shared test fixtures: acquiring datasets is the expensive part, so
// build them once per test binary.
var (
	fixtureOnce sync.Once
	selDS       *acquisition.Dataset // all counters @2400
	fullDS      *acquisition.Dataset // six canonical counters, 5 freqs
	fixtureErr  error
)

// canonicalEvents is the six-counter set Algorithm 1 selects under the
// canonical seed (kept in sync by TestSelectEventsCanonical).
func canonicalEvents() []pmu.EventID {
	var out []pmu.EventID
	for _, n := range []string{"LST_INS", "STL_CCY", "L3_TCM", "TOT_CYC", "BR_UCN", "BR_TKN"} {
		out = append(out, pmu.MustByName(n).ID)
	}
	return out
}

func fixtures(t testing.TB) (*acquisition.Dataset, *acquisition.Dataset) {
	t.Helper()
	fixtureOnce.Do(func() {
		selDS, fixtureErr = acquisition.Acquire(acquisition.Options{Seed: 42},
			workloads.Active(), []int{2400})
		if fixtureErr != nil {
			return
		}
		fullDS, fixtureErr = acquisition.Acquire(
			acquisition.Options{Seed: 42, Events: canonicalEvents()},
			workloads.Active(), []int{1200, 1600, 2000, 2400, 2600})
	})
	if fixtureErr != nil {
		t.Fatal(fixtureErr)
	}
	return selDS, fullDS
}

func TestEventRateAndV2F(t *testing.T) {
	_, full := fixtures(t)
	r := full.Rows[0]
	cyc := pmu.MustByName("TOT_CYC").ID
	e := r.RatePerCycle(cyc)
	if e <= 0 {
		t.Fatal("cycle rate must be positive")
	}
	v2f := V2F(r)
	want := r.VoltageV * r.VoltageV * float64(r.FreqMHz) / 1000
	if math.Abs(v2f-want) > 1e-12 {
		t.Fatalf("V2F = %v, want %v", v2f, want)
	}
}

func TestDesignMatrixShape(t *testing.T) {
	_, full := fixtures(t)
	events := canonicalEvents()
	x, y, err := DesignMatrix(full.Rows, events)
	if err != nil {
		t.Fatal(err)
	}
	if x.Rows() != len(full.Rows) || x.Cols() != len(events)+2 {
		t.Fatalf("design matrix %dx%d, want %dx%d", x.Rows(), x.Cols(), len(full.Rows), len(events)+2)
	}
	if len(y) != len(full.Rows) {
		t.Fatal("target length mismatch")
	}
	// Column k is V²f, column k+1 is V.
	k := len(events)
	r0 := full.Rows[0]
	if math.Abs(x.At(0, k)-V2F(r0)) > 1e-12 || math.Abs(x.At(0, k+1)-r0.VoltageV) > 1e-12 {
		t.Fatal("V²f / V columns misplaced")
	}
	if _, _, err := DesignMatrix(nil, events); err == nil {
		t.Fatal("empty dataset must error")
	}
}

func TestTrainAndPredict(t *testing.T) {
	_, full := fixtures(t)
	m, err := Train(full.Rows, canonicalEvents(), TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if m.R2() < 0.9 {
		t.Fatalf("in-sample R² = %.3f, implausibly low", m.R2())
	}
	if m.AdjR2() >= m.R2() {
		t.Fatal("Adj.R² must be below R²")
	}
	if m.Fit.Estimator != stats.CovHC3 {
		t.Fatalf("default estimator = %v, want HC3", m.Fit.Estimator)
	}
	// Predict must reproduce the design-matrix fit.
	preds := m.PredictAll(full.Rows)
	for i, r := range full.Rows {
		if math.Abs(preds[i]-m.Fit.Fitted[i]) > 1e-9 {
			t.Fatalf("Predict diverges from fit at row %d", i)
		}
		if preds[i] != m.Predict(r) {
			t.Fatal("PredictAll must match Predict")
		}
	}
	if mape := m.MAPE(full.Rows); mape <= 0 || mape > 20 {
		t.Fatalf("in-sample MAPE = %.2f%%, implausible", mape)
	}
	if s := m.String(); len(s) == 0 {
		t.Fatal("empty model string")
	}
}

func TestModelDecomposition(t *testing.T) {
	_, full := fixtures(t)
	events := canonicalEvents()
	m, err := Train(full.Rows, events, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Reconstruct a prediction manually from the exposed terms.
	r := full.Rows[7]
	v2f := V2F(r)
	p := m.Delta + m.Gamma*r.VoltageV + m.Beta*v2f
	for i, id := range events {
		p += m.Alpha[i] * r.RatePerCycle(id) * v2f
	}
	if math.Abs(p-m.Predict(r)) > 1e-9 {
		t.Fatalf("manual reconstruction %.4f != Predict %.4f", p, m.Predict(r))
	}
	if len(m.Alpha) != len(events) {
		t.Fatal("alpha count mismatch")
	}
}

func TestSelectEventsCanonical(t *testing.T) {
	sel, _ := fixtures(t)
	steps, err := SelectEvents(sel.Rows, SelectOptions{Count: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 6 {
		t.Fatalf("got %d steps", len(steps))
	}
	// The canonical set must match what the rest of the suite assumes.
	want := canonicalEvents()
	for i, s := range steps {
		if s.Event != want[i] {
			t.Fatalf("selection step %d = %s, fixture assumes %s — update canonicalEvents",
				i+1, pmu.Lookup(s.Event).Short, pmu.Lookup(want[i]).Short)
		}
	}
	// R² must be non-decreasing: each added counter can only improve
	// the in-sample fit.
	for i := 1; i < len(steps); i++ {
		if steps[i].R2 < steps[i-1].R2-1e-12 {
			t.Fatalf("R² decreased at step %d", i+1)
		}
	}
	// First step has no VIF; later steps do.
	if !math.IsNaN(steps[0].MeanVIF) {
		t.Fatal("first step must have NaN VIF (n/a)")
	}
	for i := 1; i < len(steps); i++ {
		if math.IsNaN(steps[i].MeanVIF) || steps[i].MeanVIF < 1 {
			t.Fatalf("step %d mean VIF = %v", i+1, steps[i].MeanVIF)
		}
		if len(steps[i].VIFs) != i+1 {
			t.Fatalf("step %d has %d per-event VIFs", i+1, len(steps[i].VIFs))
		}
	}
	// Paper shape: first counter explains most of the variance, six
	// reach ≈0.98, VIF stays moderate.
	if steps[0].R2 < 0.6 || steps[0].R2 > 0.9 {
		t.Fatalf("first-counter R² = %.3f outside the paper's regime", steps[0].R2)
	}
	if steps[5].R2 < 0.95 {
		t.Fatalf("six-counter R² = %.3f, want ≥ 0.95", steps[5].R2)
	}
	if steps[5].MeanVIF > 10 {
		t.Fatalf("six-counter mean VIF = %.1f, want < 10", steps[5].MeanVIF)
	}
}

func TestSelectEventsNoDuplicates(t *testing.T) {
	sel, _ := fixtures(t)
	steps, err := SelectEvents(sel.Rows, SelectOptions{Count: 8})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[pmu.EventID]bool{}
	for _, s := range steps {
		if seen[s.Event] {
			t.Fatalf("event %s selected twice", pmu.Lookup(s.Event).Short)
		}
		seen[s.Event] = true
	}
}

func TestSelectEventsCycleInit(t *testing.T) {
	sel, _ := fixtures(t)
	steps, err := SelectEvents(sel.Rows, SelectOptions{Count: 3, InitWithCycles: true})
	if err != nil {
		t.Fatal(err)
	}
	if steps[0].Event != pmu.MustByName("TOT_CYC").ID {
		t.Fatal("InitWithCycles must seed the selection with TOT_CYC")
	}
}

func TestSelectEventsValidation(t *testing.T) {
	sel, _ := fixtures(t)
	if _, err := SelectEvents(sel.Rows, SelectOptions{Count: 0}); err == nil {
		t.Fatal("Count 0 must error")
	}
	if _, err := SelectEvents(nil, SelectOptions{Count: 2}); err == nil {
		t.Fatal("empty dataset must error")
	}
	if _, err := SelectEvents(sel.Rows, SelectOptions{Count: 55}); err == nil {
		t.Fatal("Count > the 54 presets must error")
	}
}

func TestEventsHelper(t *testing.T) {
	steps := []SelectionStep{{Event: 3}, {Event: 7}}
	ids := Events(steps)
	if len(ids) != 2 || ids[0] != 3 || ids[1] != 7 {
		t.Fatalf("Events = %v", ids)
	}
}

func TestCrossValidate(t *testing.T) {
	_, full := fixtures(t)
	cv, err := CrossValidateP(full.Rows, canonicalEvents(), 10, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(cv.Folds) != 10 {
		t.Fatalf("%d folds", len(cv.Folds))
	}
	if len(cv.Predictions) != len(full.Rows) {
		t.Fatalf("%d out-of-fold predictions for %d rows", len(cv.Predictions), len(full.Rows))
	}
	// Paper Table II regime: high R², single-digit MAPE.
	if s := cv.R2Summary(); s.Mean < 0.9 || s.Min > s.Max {
		t.Fatalf("CV R² summary %+v implausible", s)
	}
	if s := cv.MAPESummary(); s.Mean < 2 || s.Mean > 15 {
		t.Fatalf("CV MAPE mean %.2f%% outside the paper's regime", s.Mean)
	}
	if math.Abs(cv.OverallMAPE()-cv.MAPESummary().Mean) > 2 {
		t.Fatal("overall MAPE far from fold-mean MAPE")
	}
	// Per-workload MAPE covers every workload.
	per := cv.PerWorkloadMAPE()
	if len(per) != len(full.Workloads()) {
		t.Fatalf("per-workload MAPE has %d entries, want %d", len(per), len(full.Workloads()))
	}
	for w, m := range per {
		if m < 0 || m > 50 {
			t.Fatalf("workload %s MAPE %.1f%% implausible", w, m)
		}
	}
}

func TestCrossValidateDeterministic(t *testing.T) {
	_, full := fixtures(t)
	a, err := CrossValidateP(full.Rows, canonicalEvents(), 5, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CrossValidateP(full.Rows, canonicalEvents(), 5, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Folds {
		if a.Folds[i].TestMAPE != b.Folds[i].TestMAPE {
			t.Fatal("CV must be deterministic for a fixed seed")
		}
	}
}

func TestCrossValidateErrors(t *testing.T) {
	_, full := fixtures(t)
	if _, err := CrossValidateP(full.Rows[:5], canonicalEvents(), 10, 1, 0); err == nil {
		t.Fatal("too few rows for folds must error")
	}
}

func TestHeteroscedasticResiduals(t *testing.T) {
	// The paper: "the absolute error grows with increasing power
	// values". Verify on out-of-fold residuals.
	_, full := fixtures(t)
	cv, err := CrossValidateP(full.Rows, canonicalEvents(), 10, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	var lo, hi []float64
	for _, p := range cv.Predictions {
		resid := math.Abs(p.Actual - p.Predicted)
		if p.Actual < 100 {
			lo = append(lo, resid)
		} else if p.Actual > 150 {
			hi = append(hi, resid)
		}
	}
	if len(lo) < 10 || len(hi) < 10 {
		t.Fatalf("unbalanced residual buckets: %d low, %d high", len(lo), len(hi))
	}
	if stats.Mean(hi) <= stats.Mean(lo) {
		t.Fatalf("absolute residuals must grow with power: low %.2f W, high %.2f W",
			stats.Mean(lo), stats.Mean(hi))
	}
}

func TestScenarios(t *testing.T) {
	_, full := fixtures(t)
	events := canonicalEvents()
	s1, err := Scenario1(full, events, 34)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Scenario2(full, events)
	if err != nil {
		t.Fatal(err)
	}
	// Scenario 3 is 10-fold CV over all experiments.
	cv3, err := CrossValidateP(full.Rows, events, 10, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	s3 := cv3.MAPESummary().Mean
	s4, err := Scenario4(full, events, 7, 0)
	if err != nil {
		t.Fatal(err)
	}

	// Scenario 1 trains on exactly four workloads, two per suite.
	if len(s1.TrainWorkloads) != 4 {
		t.Fatalf("scenario 1 trains on %d workloads", len(s1.TrainWorkloads))
	}
	var specCount int
	for _, n := range s1.TrainWorkloads {
		if workloads.MustByName(n).Class == workloads.SPEC {
			specCount++
		}
	}
	if specCount != 2 {
		t.Fatalf("scenario 1 draw has %d SPEC workloads, want 2", specCount)
	}

	// Scenario 2 splits by suite.
	if s2.TrainRows+s2.TestRows != len(full.Rows) {
		t.Fatal("scenario 2 rows don't partition the dataset")
	}

	// The paper's Figure-4 ordering: training on synthetic only is the
	// worst; mixed CV is good; synthetic-only CV is best.
	if !(s2.MAPE > s3) {
		t.Fatalf("scenario 2 (%.2f%%) must exceed scenario 3 (%.2f%%)", s2.MAPE, s3)
	}
	if !(s4.MAPE < s3) {
		t.Fatalf("scenario 4 (%.2f%%) must beat scenario 3 (%.2f%%)", s4.MAPE, s3)
	}
	if s1.MAPE < s3 {
		t.Fatalf("scenario 1 (%.2f%%) should not beat full CV (%.2f%%)", s1.MAPE, s3)
	}
	// And the degradation factor stays in the paper's ballpark
	// (2× in the paper; allow 1.2–4×).
	ratio := s2.MAPE / s3
	if ratio < 1.2 || ratio > 4 {
		t.Fatalf("scenario2/scenario3 ratio = %.2f, want within [1.2, 4]", ratio)
	}
}

func TestScenario2Predictions(t *testing.T) {
	_, full := fixtures(t)
	s2, err := Scenario2(full, canonicalEvents())
	if err != nil {
		t.Fatal(err)
	}
	// Every prediction is on a SPEC row.
	for _, p := range s2.Predictions {
		if p.Row.Class != workloads.SPEC {
			t.Fatal("scenario 2 predictions must be SPEC-only")
		}
		if p.Actual != p.Row.PowerW {
			t.Fatal("prediction actual mismatch")
		}
	}
	if len(s2.Predictions) != s2.TestRows {
		t.Fatal("prediction count mismatch")
	}
}

func TestPredictionAPE(t *testing.T) {
	p := Prediction{Actual: 100, Predicted: 93}
	if math.Abs(p.APE()-7) > 1e-12 {
		t.Fatalf("APE = %v, want 7", p.APE())
	}
	p = Prediction{Actual: 100, Predicted: 104}
	if math.Abs(p.APE()-4) > 1e-12 {
		t.Fatalf("APE = %v, want 4", p.APE())
	}
	if (Prediction{Actual: 0, Predicted: 5}).APE() != 0 {
		t.Fatal("zero actual must yield APE 0")
	}
}

func TestRateMatrices(t *testing.T) {
	_, full := fixtures(t)
	events := canonicalEvents()
	rows := full.Rows[:10]
	perCyc := RateMatrix(rows, events)
	perSec := RateMatrixPerSecond(rows, events)
	if perCyc.Rows() != 10 || perCyc.Cols() != len(events) {
		t.Fatal("rate matrix shape wrong")
	}
	// Per-second values are f times larger.
	f := float64(rows[0].FreqMHz) * 1e6
	if math.Abs(perSec.At(0, 0)/perCyc.At(0, 0)-f) > 1 {
		t.Fatalf("per-second/per-cycle ratio = %v, want %v", perSec.At(0, 0)/perCyc.At(0, 0), f)
	}
}
