package core

import (
	"fmt"
	"math"
	"sort"

	"pmcpower/internal/acquisition"
	"pmcpower/internal/mat"
	"pmcpower/internal/pmu"
	"pmcpower/internal/stats"
)

// This file implements the paper's future-work direction: "analyzing
// different statistical algorithms and heuristic criterions for
// selecting PMC events as variables for the regression based power
// models". Each strategy produces a fixed-size counter set comparable
// against Algorithm 1 on accuracy, stability and multicollinearity.

// Strategy enumerates counter-selection algorithms.
type Strategy int

const (
	// StrategyGreedyR2 is Algorithm 1: greedy forward selection by
	// model R² (the paper's method).
	StrategyGreedyR2 Strategy = iota
	// StrategyBackward starts from all (linearly independent)
	// candidates and iteratively eliminates the event with the least
	// significant coefficient until Count remain.
	StrategyBackward
	// StrategyPCC ranks candidates by |Pearson correlation| of their
	// rate with power and takes the top Count — the naive approach the
	// paper's Table III implicitly argues against.
	StrategyPCC
	// StrategyAIC is greedy forward selection by the Akaike
	// information criterion instead of raw R². At a fixed set size
	// both rank candidates by SSR, so it selects Algorithm 1's events.
	StrategyAIC
	// StrategyLasso runs an L1-regularized fit over a shrinking
	// penalty path and selects the first Count events to enter the
	// active set.
	StrategyLasso
)

func (s Strategy) String() string {
	switch s {
	case StrategyGreedyR2:
		return "greedy R² (Algorithm 1)"
	case StrategyBackward:
		return "backward elimination"
	case StrategyPCC:
		return "top-|PCC| ranking"
	case StrategyAIC:
		return "greedy AIC"
	case StrategyLasso:
		return "LASSO path"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// AllStrategies lists every implemented selection strategy.
func AllStrategies() []Strategy {
	return []Strategy{StrategyGreedyR2, StrategyBackward, StrategyPCC, StrategyAIC, StrategyLasso}
}

// selectWithStrategy selects count of the 54 presets using the given
// strategy. parallelism bounds the workers used for the independent
// candidate fits of the greedy strategies (0 = GOMAXPROCS,
// 1 = serial). Results are bit-identical at every level; the
// inherently sequential strategies (backward elimination, LASSO
// coordinate descent) ignore it.
func selectWithStrategy(rows []*acquisition.Row, strategy Strategy, count, parallelism int) ([]pmu.EventID, error) {
	if count < 1 {
		return nil, fmt.Errorf("core: need count >= 1, got %d", count)
	}
	candidates := pmu.AllIDs()
	if count > len(candidates) {
		return nil, fmt.Errorf("core: cannot select %d from %d candidates", count, len(candidates))
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("core: empty dataset")
	}
	switch strategy {
	case StrategyGreedyR2, StrategyAIC:
		// Within a round every candidate design has the same n and k,
		// so AIC = n·ln(SSR/n) + 2k ranks the candidates by SSR, lowest
		// first, as R² = 1 − SSR/SST does, highest first, and both
		// searches skip the same degenerate fits: greedy AIC selects
		// what Algorithm 1 selects.
		steps, err := SelectEvents(rows, SelectOptions{Count: count, Parallelism: parallelism})
		if err != nil {
			return nil, err
		}
		return Events(steps), nil
	case StrategyBackward:
		return backwardEliminate(rows, count, candidates)
	case StrategyPCC:
		return pccRank(rows, count, candidates), nil
	case StrategyLasso:
		return lassoPath(rows, count, candidates)
	default:
		return nil, fmt.Errorf("core: unknown strategy %v", strategy)
	}
}

// independentSubset greedily filters candidates to a set whose
// Equation-1 design matrix is full rank, in candidate order. Needed
// because many PAPI presets are exact linear combinations of others
// (L1_TCM = L1_DCM + L1_ICM, …), which would make the all-counter
// design singular. A candidate is kept when Train would fit it with
// the events kept before it: the design [1, kept…, candidate, V²f, V]
// has more rows than columns and is full rank at Train's tolerance.
// [1, kept…] is factored once; each candidate's three columns are
// appended to it, tested and dropped again. Householder QR factors a
// column from the columns before it alone, so every test sees the
// factorization Train's fit of the same design computes, bit for bit.
func independentSubset(rows []*acquisition.Row, candidates []pmu.EventID) []pmu.EventID {
	x, _, err := DesignMatrix(rows, candidates)
	if err != nil {
		return nil
	}
	cols := x.Columns() // each candidate's E_n·V²f, then V²f and V
	v2f, v := cols[len(candidates)], cols[len(candidates)+1]
	n := len(rows)
	ones := make([]float64, n)
	for i := range ones {
		ones[i] = 1
	}
	qr := mat.NewUpdQR(n, min(n, len(candidates)+3))
	qr.AppendCol(ones)
	var kept []pmu.EventID
	for j, cand := range candidates {
		if len(kept)+4 >= n {
			break // Train needs more rows than coefficients
		}
		qr.AppendCol(cols[j])
		qr.AppendCol(v2f)
		qr.AppendCol(v)
		if qr.IsFullRank(1e-12) {
			kept = append(kept, cand)
		}
		qr.Truncate(1 + len(kept))
	}
	return kept
}

func backwardEliminate(rows []*acquisition.Row, count int, candidates []pmu.EventID) ([]pmu.EventID, error) {
	current := independentSubset(rows, candidates)
	if len(current) < count {
		return nil, fmt.Errorf("core: only %d independent candidates for backward elimination", len(current))
	}
	for len(current) > count {
		m, err := Train(rows, current, TrainOptions{})
		if err != nil {
			return nil, err
		}
		// Coefficient t-statistics of the event features: indices
		// 1..len(current) of the fit (0 is the intercept).
		worst, worstT := -1, math.Inf(1)
		for i := range current {
			t := math.Abs(m.Fit.TStats[i+1])
			if t < worstT {
				worst, worstT = i, t
			}
		}
		current = append(current[:worst], current[worst+1:]...)
	}
	return pmu.SortIDs(current), nil
}

func pccRank(rows []*acquisition.Row, count int, candidates []pmu.EventID) []pmu.EventID {
	type scored struct {
		id  pmu.EventID
		abs float64
	}
	var all []scored
	for j, pcc := range PowerPCC(rows, candidates) {
		if math.IsNaN(pcc) {
			continue
		}
		all = append(all, scored{candidates[j], math.Abs(pcc)})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].abs != all[j].abs {
			return all[i].abs > all[j].abs
		}
		return all[i].id < all[j].id
	})
	if count > len(all) {
		count = len(all)
	}
	out := make([]pmu.EventID, count)
	for i := 0; i < count; i++ {
		out[i] = all[i].id
	}
	return out
}

// lassoPath selects events by the order they enter an L1-regularized
// Equation-1 fit as the penalty shrinks. Only the event features are
// penalized; the V²f, V and intercept terms stay unpenalized. Features
// are standardized internally.
func lassoPath(rows []*acquisition.Row, count int, candidates []pmu.EventID) ([]pmu.EventID, error) {
	// Drop zero-variance candidates (their standardized column is
	// undefined).
	var events []pmu.EventID
	for j, col := range RateMatrix(rows, candidates).Columns() {
		if lo, hi := stats.MinMax(col); hi > lo {
			events = append(events, candidates[j])
		}
	}
	x, y, err := DesignMatrix(rows, events)
	if err != nil {
		return nil, err
	}
	n, p := x.Rows(), x.Cols()

	// Standardize all columns, each a slice of its own; center the
	// target.
	cols := x.Columns()
	for _, col := range cols {
		mu, sd := stats.Mean(col), stats.StdDev(col)
		if sd == 0 {
			sd = 1
		}
		for i, v := range col {
			col[i] = (v - mu) / sd
		}
	}
	ybar := stats.Mean(y)
	resid := make([]float64, n)
	for i := range y {
		resid[i] = y[i] - ybar
	}

	beta := make([]float64, p)
	penalized := func(j int) bool { return j < len(events) }

	// λ_max: smallest penalty at which all penalized coefficients are
	// zero.
	lambdaMax := 0.0
	for j := 0; j < p; j++ {
		if !penalized(j) {
			continue
		}
		var dot float64
		for i, v := range cols[j] {
			dot += v * resid[i]
		}
		if a := math.Abs(dot) / float64(n); a > lambdaMax {
			lambdaMax = a
		}
	}
	if lambdaMax == 0 {
		return nil, fmt.Errorf("core: lasso: no signal in penalized features")
	}

	var order []pmu.EventID
	entered := make(map[int]bool)
	lambda := lambdaMax
	for step := 0; step < 120 && len(order) < count; step++ {
		lambda *= 0.90
		// Cyclic coordinate descent at this λ.
		for sweep := 0; sweep < 300; sweep++ {
			maxDelta := 0.0
			for j, col := range cols {
				var dot float64
				for i, v := range col {
					dot += v * resid[i]
				}
				// Columns are standardized: Σx² = n−1 ≈ n.
				z := dot/float64(n) + beta[j]
				var newB float64
				if penalized(j) {
					newB = softThreshold(z, lambda)
				} else {
					newB = z
				}
				if d := newB - beta[j]; d != 0 {
					for i, v := range col {
						resid[i] -= d * v
					}
					beta[j] = newB
					if a := math.Abs(d); a > maxDelta {
						maxDelta = a
					}
				}
			}
			if maxDelta < 1e-7 {
				break
			}
		}
		// Record newly active events in deterministic column order.
		for j := 0; j < len(events); j++ {
			if !entered[j] && beta[j] != 0 {
				entered[j] = true
				order = append(order, events[j])
				if len(order) == count {
					break
				}
			}
		}
	}
	if len(order) < count {
		return nil, fmt.Errorf("core: lasso path activated only %d of %d requested events", len(order), count)
	}
	return order, nil
}

func softThreshold(z, lambda float64) float64 {
	switch {
	case z > lambda:
		return z - lambda
	case z < -lambda:
		return z + lambda
	default:
		return 0
	}
}

// StrategyComparison evaluates one strategy's selected set on the
// metrics the paper cares about.
type StrategyComparison struct {
	Strategy Strategy
	Events   []pmu.EventID
	// R2 is the in-sample fit on the selection dataset.
	R2 float64
	// MeanVIF quantifies the multicollinearity of the set.
	MeanVIF float64
	// CVMAPE is the 10-fold cross-validated MAPE on the evaluation
	// dataset.
	CVMAPE float64
	// TransferMAPE is the scenario-2 style MAPE (train synthetic,
	// test SPEC) — the stability criterion.
	TransferMAPE float64
}

// CompareStrategiesP runs every strategy on the selection rows and
// evaluates the resulting sets on the evaluation rows. parallelism
// (0 = GOMAXPROCS, 1 = serial) is threaded into each strategy's
// candidate evaluation, the VIF computation and the cross-validation.
// The strategies themselves run sequentially: the greedy ones already
// saturate the pool, and running them in order keeps the comparison's
// memory footprint flat.
func CompareStrategiesP(selRows, evalRows []*acquisition.Row, count int, cvSeed uint64, parallelism int) ([]StrategyComparison, error) {
	var out []StrategyComparison
	for _, s := range AllStrategies() {
		events, err := selectWithStrategy(selRows, s, count, parallelism)
		if err != nil {
			return nil, fmt.Errorf("core: strategy %v: %w", s, err)
		}
		cmp := StrategyComparison{Strategy: s, Events: events}

		m, err := Train(selRows, events, TrainOptions{})
		if err != nil {
			return nil, fmt.Errorf("core: strategy %v refit: %w", s, err)
		}
		cmp.R2 = m.R2()
		vif, err := stats.MeanVIF(RateMatrix(selRows, events), parallelism)
		if err == nil {
			cmp.MeanVIF = vif
		} else {
			cmp.MeanVIF = math.Inf(1)
		}

		cv, err := CrossValidateP(evalRows, events, 10, cvSeed, parallelism)
		if err != nil {
			return nil, fmt.Errorf("core: strategy %v CV: %w", s, err)
		}
		cmp.CVMAPE = cv.MAPESummary().Mean

		ds := &acquisition.Dataset{Rows: evalRows}
		s2, err := Scenario2(ds, events)
		if err != nil {
			return nil, fmt.Errorf("core: strategy %v scenario 2: %w", s, err)
		}
		cmp.TransferMAPE = s2.MAPE
		out = append(out, cmp)
	}
	return out, nil
}
