package stats

import (
	"fmt"
	"math"

	"pmcpower/internal/mat"
)

// BreuschPagan performs the Breusch–Pagan Lagrange-multiplier test for
// heteroscedasticity on a fitted regression: it regresses the squared
// residuals on the original design matrix (without intercept column;
// one is added internally) and reports LM = n·R² with a χ²(k) null
// distribution.
//
// A small p-value rejects homoscedasticity — the formal justification
// for the HC3 estimator the paper adopts ("heteroscedasticity ...
// leads to reduction in accuracy of the coefficients").
type BPResult struct {
	LM     float64 // Lagrange multiplier statistic n·R²
	DF     int     // degrees of freedom (number of regressors)
	PValue float64 // P(χ²(DF) > LM)
}

// BreuschPagan runs the test for the regression of y on x (x without
// intercept column). The residuals come from an internal OLS fit, so
// callers only need the raw data.
func BreuschPagan(x *mat.Matrix, y []float64) (*BPResult, error) {
	fit, err := FitOLS(x, y, OLSOptions{})
	if err != nil {
		return nil, fmt.Errorf("stats: BreuschPagan primary fit: %w", err)
	}
	// Auxiliary regression: e² on the regressors.
	e2 := make([]float64, len(fit.Residuals))
	for i, e := range fit.Residuals {
		e2[i] = e * e
	}
	aux, err := FitOLS(x, e2, OLSOptions{})
	if err != nil {
		return nil, fmt.Errorf("stats: BreuschPagan auxiliary fit: %w", err)
	}
	lm := float64(aux.N) * aux.R2
	df := x.Cols()
	return &BPResult{
		LM:     lm,
		DF:     df,
		PValue: ChiSquareSF(lm, float64(df)),
	}, nil
}

// ChiSquareSF returns the survival function P(X > x) of a chi-squared
// distribution with k degrees of freedom, via the regularized upper
// incomplete gamma function Q(k/2, x/2).
func ChiSquareSF(x, k float64) float64 {
	if x <= 0 {
		return 1
	}
	if k <= 0 {
		return math.NaN()
	}
	return regIncGammaQ(k/2, x/2)
}

// regIncGammaQ computes the regularized upper incomplete gamma
// function Q(a, x) = Γ(a,x)/Γ(a), following Numerical Recipes §6.2:
// series expansion for x < a+1, continued fraction otherwise.
func regIncGammaQ(a, x float64) float64 {
	switch {
	case x < 0 || a <= 0:
		return math.NaN()
	case x == 0:
		return 1
	case x < a+1:
		return 1 - gammaPSeries(a, x)
	default:
		return gammaQCF(a, x)
	}
}

// gammaPSeries evaluates P(a,x) by its power series.
func gammaPSeries(a, x float64) float64 {
	lg, _ := math.Lgamma(a)
	ap := a
	sum := 1 / a
	del := sum
	for n := 0; n < 500; n++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*1e-15 {
			break
		}
	}
	return sum * math.Exp(-x+a*math.Log(x)-lg)
}

// gammaQCF evaluates Q(a,x) by its continued fraction (modified Lentz).
func gammaQCF(a, x float64) float64 {
	const fpmin = 1e-300
	lg, _ := math.Lgamma(a)
	b := x + 1 - a
	c := 1 / fpmin
	d := 1 / b
	h := d
	for i := 1; i <= 500; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = b + an/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < 1e-15 {
			break
		}
	}
	return math.Exp(-x+a*math.Log(x)-lg) * h
}
