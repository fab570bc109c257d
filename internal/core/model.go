package core

import (
	"context"
	"fmt"
	"strings"

	"pmcpower/internal/acquisition"
	"pmcpower/internal/obs"
	"pmcpower/internal/pmu"
	"pmcpower/internal/stats"
	"pmcpower/internal/workloads"
)

// Model is a trained Equation-1 power model.
type Model struct {
	// Events are the selected PMC events, in design-matrix order.
	Events []pmu.EventID
	// Alpha are the per-event dynamic-power coefficients α_n.
	Alpha []float64
	// Beta is the coefficient of the V²f term (dynamic power not
	// captured by the events).
	Beta float64
	// Gamma is the coefficient of the V term (static processor power).
	Gamma float64
	// Delta is the intercept (system power independent of the core
	// voltage — the paper's δ·Z with Z ≡ 1).
	Delta float64

	// Fit is the underlying OLS result (coefficient standard errors
	// under the chosen HCSE estimator, leverages, residuals, …).
	Fit *stats.OLSResult
}

// TrainOptions configures model training.
type TrainOptions struct {
	// Estimator is the covariance estimator for coefficient standard
	// errors; the paper uses HC3. Defaults to stats.CovHC3.
	Estimator stats.CovEstimator
}

// Train fits Equation 1 to the rows using OLS. The point estimates do
// not depend on the HCSE estimator choice; standard errors and p-values
// do.
func Train(rows []*acquisition.Row, events []pmu.EventID, opts TrainOptions) (*Model, error) {
	return TrainCtx(context.Background(), rows, events, opts)
}

// TrainCtx is Train under a caller context: when ctx carries an
// obs.Tracer the fit emits a "fit" span (rows, events, and the
// resulting R² as attributes). The numeric path is untouched — the
// fitted model is bit-identical with or without a tracer.
func TrainCtx(ctx context.Context, rows []*acquisition.Row, events []pmu.EventID, opts TrainOptions) (*Model, error) {
	_, span := obs.FromContext(ctx).StartSpan(ctx, "fit",
		obs.Int("rows", len(rows)), obs.Int("events", len(events)))
	defer span.End()
	x, y, err := DesignMatrix(rows, events)
	if err != nil {
		return nil, err
	}
	est := opts.Estimator
	if est == stats.CovClassic {
		est = stats.CovHC3
	}
	fit, err := stats.FitOLS(x, y, stats.OLSOptions{Estimator: est})
	if err != nil {
		return nil, fmt.Errorf("core: training failed for events %v: %w", pmu.ShortNames(events), err)
	}
	span.SetAttr(obs.Float("r2", fit.R2))
	return modelFromCoeffs(events, fit.Coeffs, fit), nil
}

// Calibrate runs the once-per-platform workflow on the simulated
// Haswell-EP node: an all-counter campaign over the active workloads
// at the 2400 MHz selection frequency, Algorithm 1 for six counters, a
// campaign with those counters over the five P-states, and Train.
// `estimate -train` and `pmcpowerd -selfcal` both calibrate through it.
func Calibrate(seed uint64) (*Model, error) {
	selDS, err := acquisition.Acquire(acquisition.Options{Seed: seed}, workloads.Active(), []int{2400})
	if err != nil {
		return nil, err
	}
	steps, err := SelectEvents(selDS.Rows, SelectOptions{Count: 6})
	if err != nil {
		return nil, err
	}
	events := Events(steps)
	full, err := acquisition.Acquire(acquisition.Options{Seed: seed, Events: events},
		workloads.Active(), []int{1200, 1600, 2000, 2400, 2600})
	if err != nil {
		return nil, err
	}
	return Train(full.Rows, events, TrainOptions{})
}

// modelFromCoeffs maps Equation-1 design coefficients (intercept
// first, then the k event features, V²f, V) onto the named model
// terms. fit may be nil for scoring-only fits produced by the fast
// kernel (cross-validation folds, scenario holdouts) — such models are
// used for prediction only and never escape the package.
func modelFromCoeffs(events []pmu.EventID, coeffs []float64, fit *stats.OLSResult) *Model {
	k := len(events)
	return &Model{
		Events: append([]pmu.EventID(nil), events...),
		Alpha:  append([]float64(nil), coeffs[1:1+k]...),
		Beta:   coeffs[1+k],
		Gamma:  coeffs[2+k],
		Delta:  coeffs[0],
		Fit:    fit,
	}
}

// R2 returns the in-sample coefficient of determination.
func (m *Model) R2() float64 { return m.Fit.R2 }

// AdjR2 returns the adjusted R².
func (m *Model) AdjR2() float64 { return m.Fit.AdjR2 }

// Predict estimates power for one dataset row.
func (m *Model) Predict(r *acquisition.Row) float64 {
	v2f := V2F(r)
	p := m.Delta + m.Gamma*r.VoltageV + m.Beta*v2f
	for i, id := range m.Events {
		p += m.Alpha[i] * r.RatePerCycle(id) * v2f
	}
	return p
}

// PredictAll estimates power for every row.
func (m *Model) PredictAll(rows []*acquisition.Row) []float64 {
	out := make([]float64, len(rows))
	for i, r := range rows {
		out[i] = m.Predict(r)
	}
	return out
}

// MAPE evaluates the model's mean absolute percentage error on rows.
func (m *Model) MAPE(rows []*acquisition.Row) float64 {
	actual := make([]float64, len(rows))
	for i, r := range rows {
		actual[i] = r.PowerW
	}
	return stats.MAPE(actual, m.PredictAll(rows))
}

// String summarizes the fitted model.
func (m *Model) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "P[W] = %.3f", m.Delta)
	fmt.Fprintf(&sb, " + %.3f·V", m.Gamma)
	fmt.Fprintf(&sb, " + %.3f·V²f", m.Beta)
	for i, id := range m.Events {
		fmt.Fprintf(&sb, " + %.3f·E(%s)·V²f", m.Alpha[i], pmu.Lookup(id).Short)
	}
	fmt.Fprintf(&sb, "   [R²=%.4f Adj.R²=%.4f, SE: %s]", m.R2(), m.AdjR2(), m.Fit.Estimator)
	return sb.String()
}
