// Package core implements the paper's contribution: the statistical
// power-modeling workflow for x86 processors — Equation-1 feature
// construction, the greedy PMC event selection of Algorithm 1 with
// VIF-based multicollinearity monitoring, OLS+HC3 model training, and
// the validation procedures (10-fold cross validation and the four
// train/test scenarios of Section IV-B).
package core

import (
	"fmt"

	"pmcpower/internal/acquisition"
	"pmcpower/internal/mat"
	"pmcpower/internal/pmu"
	"pmcpower/internal/stats"
)

// V2F returns V_DD² · f_clk for a row, with f in GHz (the scale keeps
// coefficients in comfortable ranges).
func V2F(r *acquisition.Row) float64 {
	return r.VoltageV * r.VoltageV * float64(r.FreqMHz) / 1000
}

// DesignMatrix builds the Equation-1 regression design for the given
// rows and selected events:
//
//	P = Σ_n α_n·E_n·V²f  +  β·V²f  +  γ·V  (+ δ·Z as intercept)
//
// Columns are [E_0·V²f, …, E_{k−1}·V²f, V²f, V], with E_n the event's
// rate per cpu cycle (acquisition.Row.RatePerCycle); the constant δ·Z
// term is the intercept added by the OLS fit. The returned target vector is
// measured power in watts.
func DesignMatrix(rows []*acquisition.Row, events []pmu.EventID) (*mat.Matrix, []float64, error) {
	if len(rows) == 0 {
		return nil, nil, fmt.Errorf("core: empty dataset")
	}
	x := mat.New(len(rows), len(events)+2)
	y := make([]float64, len(rows))
	row := make([]float64, len(events)+2)
	for i, r := range rows {
		designRow(row, r, events)
		for j, v := range row {
			x.Set(i, j, v)
		}
		y[i] = r.PowerW
	}
	return x, y, nil
}

// designRow writes r's Equation-1 features into row:
// [E_0·V²f, …, E_{k−1}·V²f, V²f, V], with V²f from V2F and each E_n
// from RatePerCycle. DesignMatrix, the refit window and PredictWithCI
// all build their rows here, so the window refits exactly the rows
// Train fits.
func designRow(row []float64, r *acquisition.Row, events []pmu.EventID) {
	v2f := V2F(r)
	for j, id := range events {
		row[j] = r.RatePerCycle(id) * v2f
	}
	row[len(events)] = v2f
	row[len(events)+1] = r.VoltageV
}

// RateMatrix builds the matrix of raw E_n event rates (events per cpu
// cycle) for VIF computation: the paper quantifies multicollinearity
// between the chosen PMC events themselves.
func RateMatrix(rows []*acquisition.Row, events []pmu.EventID) *mat.Matrix {
	x := mat.New(len(rows), len(events))
	for i, r := range rows {
		for j, id := range events {
			x.Set(i, j, r.RatePerCycle(id))
		}
	}
	return x
}

// PowerPCC returns the Pearson correlation coefficient of each event's
// E_n rate with measured power over the rows, in event order — the
// paper's Equation 2. A counter that never varies yields NaN.
func PowerPCC(rows []*acquisition.Row, events []pmu.EventID) []float64 {
	power := make([]float64, len(rows))
	for i, r := range rows {
		power[i] = r.PowerW
	}
	out := make([]float64, len(events))
	for j, col := range RateMatrix(rows, events).Columns() {
		out[j] = stats.Pearson(col, power)
	}
	return out
}

// RateMatrixPerSecond builds the matrix of absolute event rates
// (events per second) — the *un*normalized alternative the paper
// rejects. Used by the rate-normalization ablation.
func RateMatrixPerSecond(rows []*acquisition.Row, events []pmu.EventID) *mat.Matrix {
	x := mat.New(len(rows), len(events))
	for i, r := range rows {
		for j, id := range events {
			x.Set(i, j, r.Rates[id])
		}
	}
	return x
}
