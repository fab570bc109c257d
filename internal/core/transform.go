package core

import (
	"fmt"
	"math"

	"pmcpower/internal/acquisition"
	"pmcpower/internal/pmu"
	"pmcpower/internal/stats"
)

// This file implements the second stage of Walker et al.'s selection
// methodology: when two selected events are highly correlated (high
// VIF), attempt a mathematical transformation of the later-selected
// event with respect to the earlier one to reduce the collinearity.
//
// The paper found this stage *not applicable* on x86: "there is no
// clear relationship between the correlating selected counters ...
// such a transformation to reduce the VIF is not applicable". The
// machinery below makes that claim checkable: it enumerates the
// standard transformations and reports whether any of them reduces the
// mean VIF without degrading the model fit.

// TransformKind enumerates the candidate transformations of a
// correlated event pair (target, reference).
type TransformKind int

const (
	// TransformRatio replaces E_target with E_target / E_reference.
	TransformRatio TransformKind = iota
	// TransformDifference replaces E_target with E_target − E_reference.
	TransformDifference
	// TransformResidual replaces E_target with the residual of its
	// least-squares projection on E_reference (orthogonalization).
	TransformResidual
)

func (k TransformKind) String() string {
	switch k {
	case TransformRatio:
		return "ratio"
	case TransformDifference:
		return "difference"
	case TransformResidual:
		return "residualization"
	default:
		return fmt.Sprintf("TransformKind(%d)", int(k))
	}
}

// TransformCandidate is one attempted transformation with its outcome.
type TransformCandidate struct {
	Target    pmu.EventID
	Reference pmu.EventID
	Kind      TransformKind
	// MeanVIFBefore/After compare the selected set's multicollinearity.
	MeanVIFBefore float64
	MeanVIFAfter  float64
	// R2Before/After compare the Equation-1 model fit.
	R2Before float64
	R2After  float64
	// Applicable is true when the transformation reduces the mean VIF
	// without losing more than 0.005 R² — Walker et al.'s acceptance
	// criterion, operationalized.
	Applicable bool
}

// TransformationSearch finds the most correlated pair among the
// selected events and evaluates every candidate transformation of the
// later-selected event. It mirrors §III-B's stage 2.
func TransformationSearch(rows []*acquisition.Row, selected []pmu.EventID) ([]TransformCandidate, error) {
	if len(selected) < 2 {
		return nil, fmt.Errorf("core: transformation search needs at least 2 events")
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("core: empty dataset")
	}

	rates := RateMatrix(rows, selected)
	cols := rates.Columns()

	// Most correlated pair; the later-selected event is the target
	// (Walker et al. transform the newly added event).
	bestI, bestJ, bestAbs := -1, -1, 0.0
	for i := 0; i < len(selected); i++ {
		for j := i + 1; j < len(selected); j++ {
			c := stats.Pearson(cols[i], cols[j])
			if a := math.Abs(c); !math.IsNaN(a) && a > bestAbs {
				bestI, bestJ, bestAbs = i, j, a
			}
		}
	}
	if bestI < 0 {
		return nil, fmt.Errorf("core: no correlated pair found")
	}
	refIdx, tgtIdx := bestI, bestJ

	vifBefore, err := stats.MeanVIF(rates, 1)
	if err != nil {
		return nil, err
	}
	mBefore, err := Train(rows, selected, TrainOptions{})
	if err != nil {
		return nil, err
	}

	var out []TransformCandidate
	for _, kind := range []TransformKind{TransformRatio, TransformDifference, TransformResidual} {
		transformed := transformColumn(cols[tgtIdx], cols[refIdx], kind)
		if transformed == nil {
			continue // transformation undefined on this data (e.g. division by zero)
		}
		cand := TransformCandidate{
			Target:        selected[tgtIdx],
			Reference:     selected[refIdx],
			Kind:          kind,
			MeanVIFBefore: vifBefore,
			R2Before:      mBefore.R2(),
		}

		after := rates.Clone()
		for i, v := range transformed {
			after.Set(i, tgtIdx, v)
		}
		vifAfter, err := stats.MeanVIF(after, 1)
		if err != nil {
			continue
		}
		cand.MeanVIFAfter = vifAfter

		// Refit Equation 1 with the transformed feature.
		x, y, err := DesignMatrix(rows, selected)
		if err != nil {
			return nil, err
		}
		for i := range rows {
			x.Set(i, tgtIdx, transformed[i]*V2F(rows[i]))
		}
		fit, err := stats.FitOLS(x, y, stats.OLSOptions{Estimator: stats.CovHC3})
		if err != nil {
			continue
		}
		cand.R2After = fit.R2
		cand.Applicable = vifAfter < vifBefore && fit.R2 >= mBefore.R2()-0.005
		out = append(out, cand)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("core: no transformation evaluable on this data")
	}
	return out, nil
}

func transformColumn(target, reference []float64, kind TransformKind) []float64 {
	out := make([]float64, len(target))
	switch kind {
	case TransformRatio:
		for i := range target {
			if math.Abs(reference[i]) < 1e-15 {
				return nil
			}
			out[i] = target[i] / reference[i]
		}
	case TransformDifference:
		for i := range target {
			out[i] = target[i] - reference[i]
		}
	case TransformResidual:
		// Least-squares slope of target on reference (with intercept).
		mt := stats.Mean(target)
		mr := stats.Mean(reference)
		var sxy, sxx float64
		for i := range target {
			dr := reference[i] - mr
			sxy += dr * (target[i] - mt)
			sxx += dr * dr
		}
		if sxx == 0 {
			return nil
		}
		slope := sxy / sxx
		for i := range target {
			out[i] = target[i] - mt - slope*(reference[i]-mr)
		}
	}
	return out
}
