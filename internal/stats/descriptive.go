// Package stats implements the statistical machinery the paper's
// modeling workflow relies on: ordinary least squares regression with
// an intercept, R²/Adj.R² and heteroscedasticity-consistent (HC0–HC3)
// standard errors, variance inflation factors, Pearson correlation,
// k-fold cross-validation splitting, and error metrics (MAPE, MaxAPE).
//
// It replaces the python3 statsmodels/scipy stack used by the paper
// with a stdlib-only Go implementation built on internal/mat.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs. It panics on empty input —
// every call site in this module controls its input sizes.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Mean of empty slice")
	}
	var s float64
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased sample variance (n−1 denominator).
// It panics for fewer than two observations.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		panic("stats: Variance needs at least 2 observations")
	}
	m := Mean(xs)
	var ss float64
	for _, v := range xs {
		d := v - m
		ss += d * d
	}
	return ss / float64(len(xs)-1)
}

// StdDev returns the unbiased sample standard deviation.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// MinMax returns the smallest and largest value of xs. It panics on
// empty input.
func MinMax(xs []float64) (min, max float64) {
	if len(xs) == 0 {
		panic("stats: MinMax of empty slice")
	}
	min, max = xs[0], xs[0]
	for _, v := range xs[1:] {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	return min, max
}

// Summary holds descriptive statistics of a sample; it backs the
// "Min / Max / Mean" rows of the paper's Table II.
type Summary struct {
	N    int
	Min  float64
	Max  float64
	Mean float64
	Std  float64
}

// Summarize computes a Summary of xs. Std is zero for a single
// observation.
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	s.Min, s.Max = MinMax(xs)
	s.Mean = Mean(xs)
	if len(xs) >= 2 {
		s.Std = StdDev(xs)
	}
	return s
}

func (s Summary) String() string {
	return fmt.Sprintf("n=%d min=%.4f max=%.4f mean=%.4f std=%.4f", s.N, s.Min, s.Max, s.Mean, s.Std)
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics (type-7, the numpy default).
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		panic("stats: Quantile of empty slice")
	}
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("stats: quantile %v out of [0,1]", q))
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}
