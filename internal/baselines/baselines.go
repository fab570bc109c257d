// Package baselines implements the comparison power models from the
// paper's related-work discussion (Section II), so the Equation-1
// model can be benchmarked against prior approaches on identical data:
//
//   - Rodrigues et al. [12]: a fixed "universal" subset of counters
//     (fetched instructions, L1 hits, dispatch stalls) in a plain
//     linear model — no DVFS physics, no statistical selection.
//   - Cycles-only: the Equation-1 functional form with TOT_CYC as the
//     single event — what you get without any counter selection.
//   - Per-frequency linear: an independent linear model in raw counter
//     rates per DVFS state — accurate in-distribution but needs one
//     model per frequency and cannot interpolate.
package baselines

import (
	"fmt"
	"slices"

	"pmcpower/internal/acquisition"
	"pmcpower/internal/core"
	"pmcpower/internal/mat"
	"pmcpower/internal/pmu"
	"pmcpower/internal/stats"
)

// Model is a trained baseline power model.
type Model interface {
	// Name identifies the baseline.
	Name() string
	// Predict estimates power for a dataset row.
	Predict(r *acquisition.Row) float64
}

// MAPE evaluates any baseline on rows.
func MAPE(m Model, rows []*acquisition.Row) float64 {
	actual := make([]float64, len(rows))
	pred := make([]float64, len(rows))
	for i, r := range rows {
		actual[i] = r.PowerW
		pred[i] = m.Predict(r)
	}
	return stats.MAPE(actual, pred)
}

// --- Rodrigues universal subset ---------------------------------------

// rodriguesFeatures maps the universal counters onto our preset
// namespace: fetched instructions → TOT_INS, L1 hits → LST_INS −
// L1_DCM, dispatch stalls → RES_STL. Features are rates per cycle.
func rodriguesFeatures(r *acquisition.Row) []float64 {
	ins := core.EventRate(r, pmu.MustByName("TOT_INS").ID)
	l1hit := core.EventRate(r, pmu.MustByName("LST_INS").ID) - core.EventRate(r, pmu.MustByName("L1_DCM").ID)
	stl := core.EventRate(r, pmu.MustByName("RES_STL").ID)
	return []float64{ins, l1hit, stl}
}

// Rodrigues is the universal-subset linear model: P = c0 + Σ c_i·E_i.
// It deliberately omits voltage/frequency terms, as the original
// formulation models a fixed operating point per architecture.
type Rodrigues struct {
	coeffs []float64 // intercept first
}

// TrainRodrigues fits the universal-subset model on rows. The rows
// must include TOT_INS, LST_INS, L1_DCM and RES_STL rates.
func TrainRodrigues(rows []*acquisition.Row) (*Rodrigues, error) {
	if len(rows) == 0 {
		return nil, fmt.Errorf("baselines: empty dataset")
	}
	x := mat.New(len(rows), 3)
	y := make([]float64, len(rows))
	for i, r := range rows {
		f := rodriguesFeatures(r)
		for j, v := range f {
			x.Set(i, j, v)
		}
		y[i] = r.PowerW
	}
	fit, err := stats.FitOLS(x, y, stats.OLSOptions{Intercept: true, Estimator: stats.CovHC3})
	if err != nil {
		return nil, fmt.Errorf("baselines: Rodrigues fit: %w", err)
	}
	return &Rodrigues{coeffs: fit.Coeffs}, nil
}

// Name implements Model.
func (m *Rodrigues) Name() string { return "Rodrigues universal subset" }

// Predict implements Model.
func (m *Rodrigues) Predict(r *acquisition.Row) float64 {
	f := rodriguesFeatures(r)
	p := m.coeffs[0]
	for j, v := range f {
		p += m.coeffs[j+1] * v
	}
	return p
}

// --- Cycles-only -------------------------------------------------------

// CyclesOnly is Equation 1 restricted to the cycle counter: the
// utilization-only model.
type CyclesOnly struct {
	inner *core.Model
}

// TrainCyclesOnly fits the cycles-only Equation-1 model.
func TrainCyclesOnly(rows []*acquisition.Row) (*CyclesOnly, error) {
	m, err := core.Train(rows, []pmu.EventID{pmu.MustByName("TOT_CYC").ID}, core.TrainOptions{})
	if err != nil {
		return nil, fmt.Errorf("baselines: cycles-only fit: %w", err)
	}
	return &CyclesOnly{inner: m}, nil
}

// Name implements Model.
func (m *CyclesOnly) Name() string { return "cycles-only Equation 1" }

// Predict implements Model.
func (m *CyclesOnly) Predict(r *acquisition.Row) float64 { return m.inner.Predict(r) }

// --- Per-frequency linear ----------------------------------------------

// PerFreqLinear trains an independent plain linear model (raw event
// rates per cycle, intercept, no V/f terms) per DVFS state. Rows at a
// frequency without a trained sub-model predict NaN-free via the
// nearest trained frequency.
type PerFreqLinear struct {
	events []pmu.EventID
	models map[int][]float64 // freq → coefficients (intercept first)
	freqs  []int
}

// TrainPerFreqLinear fits one model per frequency present in rows.
func TrainPerFreqLinear(rows []*acquisition.Row, events []pmu.EventID) (*PerFreqLinear, error) {
	byFreq := map[int][]*acquisition.Row{}
	for _, r := range rows {
		byFreq[r.FreqMHz] = append(byFreq[r.FreqMHz], r)
	}
	out := &PerFreqLinear{events: events, models: map[int][]float64{}}
	for f := range byFreq {
		out.freqs = append(out.freqs, f)
	}
	// Ascending order makes Predict's nearest-frequency fallback
	// deterministic: a tie goes to the lower frequency.
	slices.Sort(out.freqs)
	for _, f := range out.freqs {
		group := byFreq[f]
		x := mat.New(len(group), len(events))
		y := make([]float64, len(group))
		for i, r := range group {
			for j, id := range events {
				x.Set(i, j, core.EventRate(r, id))
			}
			y[i] = r.PowerW
		}
		fit, err := stats.FitOLS(x, y, stats.OLSOptions{Intercept: true, Estimator: stats.CovHC3})
		if err != nil {
			return nil, fmt.Errorf("baselines: per-frequency fit at %d MHz: %w", f, err)
		}
		out.models[f] = fit.Coeffs
	}
	return out, nil
}

// Name implements Model.
func (m *PerFreqLinear) Name() string { return "per-frequency linear" }

// Predict implements Model.
func (m *PerFreqLinear) Predict(r *acquisition.Row) float64 {
	coeffs, ok := m.models[r.FreqMHz]
	if !ok {
		// Nearest trained frequency, the lower one on a tie — the
		// baseline's fundamental weakness: it cannot transfer across
		// DVFS states.
		best, bestD := 0, 1<<30
		for _, f := range m.freqs {
			d := f - r.FreqMHz
			if d < 0 {
				d = -d
			}
			if d < bestD {
				best, bestD = f, d
			}
		}
		coeffs = m.models[best]
	}
	p := coeffs[0]
	for j, id := range m.events {
		p += coeffs[j+1] * core.EventRate(r, id)
	}
	return p
}
