package core

import (
	"fmt"
	"math"

	"pmcpower/internal/acquisition"
)

// Prediction intervals. The HC3 coefficient covariance the paper
// computes for its standard errors also yields uncertainty on the
// *estimates*: Var(x·β̂) = xᵀ·Cov(β̂)·x. The interval below covers the
// expected power of an operating point; the heteroscedastic
// observation noise on top of it is workload-dependent and not
// identified by the HC machinery, so this is a confidence interval on
// the mean, not a tolerance interval on single readings.

// Interval is a symmetric confidence interval around an estimate.
type Interval struct {
	Estimate float64
	Low      float64
	High     float64
	// SE is the standard error of the estimate.
	SE float64
}

// PredictWithCI estimates power for a row together with an approximate
// 95 % confidence interval on the expected power, propagated from the
// fit's coefficient covariance. It errors when the model carries no
// covariance (e.g. one loaded from JSON, which stores only
// diagnostics).
func (m *Model) PredictWithCI(r *acquisition.Row) (Interval, error) {
	if m.Fit == nil || m.Fit.Cov == nil {
		return Interval{}, fmt.Errorf("core: model carries no coefficient covariance (trained in-process required)")
	}
	// Feature vector in fit order: the intercept, then the design row.
	x := make([]float64, len(m.Events)+3)
	x[0] = 1
	designRow(x[1:], r, m.Events)

	if m.Fit.Cov.Rows() != len(x) {
		return Interval{}, fmt.Errorf("core: covariance is %dx%d for %d features",
			m.Fit.Cov.Rows(), m.Fit.Cov.Cols(), len(x))
	}
	cx := m.Fit.Cov.MulVec(x)
	var variance float64
	for i := range x {
		variance += x[i] * cx[i]
	}
	if variance < 0 {
		variance = 0
	}
	se := math.Sqrt(variance)
	est := m.Predict(r)
	const z95 = 1.959963984540054
	return Interval{
		Estimate: est,
		Low:      est - z95*se,
		High:     est + z95*se,
		SE:       se,
	}, nil
}
