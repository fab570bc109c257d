package stats

import (
	"errors"
	"fmt"
	"math"

	"pmcpower/internal/mat"
)

// CovEstimator selects the covariance estimator used for coefficient
// standard errors in an OLS fit.
//
// The classic estimator σ²(XᵀX)⁻¹ assumes homoscedastic errors. The
// HC family (White-type "sandwich" estimators) remains consistent when
// the error variance differs across observations — the situation the
// paper encounters ("the absolute error grows with increasing power
// values") and addresses with statsmodels' HC3.
type CovEstimator int

const (
	// CovClassic is the textbook homoscedastic estimator σ̂²(XᵀX)⁻¹.
	CovClassic CovEstimator = iota
	// CovHC0 is White (1980): meat diag(e_i²).
	CovHC0
	// CovHC1 applies the n/(n−k) small-sample correction to HC0.
	CovHC1
	// CovHC2 scales squared residuals by 1/(1−h_ii).
	CovHC2
	// CovHC3 scales squared residuals by 1/(1−h_ii)² — the estimator
	// recommended by Long & Ervin (2000) and used by the paper.
	CovHC3
)

// String returns the statsmodels-style name of the estimator.
func (c CovEstimator) String() string {
	switch c {
	case CovClassic:
		return "nonrobust"
	case CovHC0:
		return "HC0"
	case CovHC1:
		return "HC1"
	case CovHC2:
		return "HC2"
	case CovHC3:
		return "HC3"
	default:
		return fmt.Sprintf("CovEstimator(%d)", int(c))
	}
}

// ParseCovEstimator is the inverse of CovEstimator.String: it maps the
// statsmodels-style name back to the enum. An empty string parses to
// CovClassic (documents written before the estimator was recorded);
// any other unknown name is an error, so a corrupted or hand-edited
// model document cannot silently claim provenance it does not have.
func ParseCovEstimator(s string) (CovEstimator, error) {
	switch s {
	case "", "nonrobust":
		return CovClassic, nil
	case "HC0":
		return CovHC0, nil
	case "HC1":
		return CovHC1, nil
	case "HC2":
		return CovHC2, nil
	case "HC3":
		return CovHC3, nil
	}
	return 0, fmt.Errorf("stats: unknown covariance estimator %q", s)
}

// ErrDegenerate is returned when an OLS fit has too few observations
// for its number of regressors, or a rank-deficient design matrix.
var ErrDegenerate = errors.New("stats: degenerate regression (rank-deficient design or too few observations)")

// OLSResult holds a fitted ordinary-least-squares model.
type OLSResult struct {
	// Coeffs are the fitted coefficients: the intercept first, then
	// one per column of x.
	Coeffs []float64
	// StdErr holds the coefficient standard errors under the chosen
	// covariance estimator, aligned with Coeffs.
	StdErr []float64
	// TStats are Coeffs[i]/StdErr[i].
	TStats []float64
	// PValues are two-sided p-values of the t statistics with
	// n−k degrees of freedom.
	PValues []float64

	// Fitted and Residuals align with the input rows.
	Fitted    []float64
	Residuals []float64

	// R2 and AdjR2 are the (adjusted) coefficient of determination.
	R2    float64
	AdjR2 float64

	// SigmaSq is the residual variance estimate SSR/(n−k).
	SigmaSq float64
	// Cov is the full coefficient covariance matrix under the chosen
	// estimator (k×k, aligned with Coeffs). StdErr is its diagonal's
	// square root.
	Cov *mat.Matrix
	// Leverages are the hat-matrix diagonal h_ii (needed by HC2/HC3
	// and useful diagnostics on their own).
	Leverages []float64

	// N and K are the number of observations and regressors (including
	// the intercept).
	N, K int
	// Estimator records which covariance estimator produced StdErr.
	Estimator CovEstimator
}

// OLSOptions configures an OLS fit.
type OLSOptions struct {
	// Estimator selects the covariance estimator for standard errors.
	Estimator CovEstimator
}

// fitCore holds the cheap outputs every OLS entry point needs:
// coefficients, fit quality, and residuals. FitOLS and FitR2 both
// derive from the same core computation, which is what guarantees the
// fast path's coefficients, R² and Adj.R² are bit-identical to the
// full fit's.
type fitCore struct {
	qr             *mat.UpdQR
	coeffs         []float64
	fitted, resid  []float64
	ssr, r2, adjR2 float64
	n, k           int
}

// fitOLSCore performs the shared QR solve and goodness-of-fit
// arithmetic of an OLS fit of y on an intercept and the columns of x.
// It factors the design [1 | x] without building it: the ones column
// is appended first, then x's columns straight from its storage.
//
// Degenerate-input contract (shared by FitOLS and FitR2 so the two
// paths agree exactly):
//   - n <= k (k counts the intercept) or a rank-deficient design
//     returns ErrDegenerate.
//   - sst == 0 (constant y) defines R² = 0 and Adj.R² = 0: a constant
//     target has no variance to explain, so neither a reward nor the
//     degrees-of-freedom penalty 1−(1−R²)·(n−1)/(n−k) is meaningful.
//     The df ratio is never evaluated with a zero or negative
//     denominator because n > k is enforced above.
func fitOLSCore(x *mat.Matrix, y []float64) (*fitCore, error) {
	if x.Rows() != len(y) {
		return nil, fmt.Errorf("stats: FitOLS rows mismatch: x has %d, y has %d", x.Rows(), len(y))
	}
	n, k := x.Rows(), x.Cols()+1
	if n <= k {
		return nil, fmt.Errorf("%w: n=%d k=%d", ErrDegenerate, n, k)
	}

	ones := make([]float64, n)
	for i := range ones {
		ones[i] = 1
	}
	qr := mat.NewUpdQR(n, k)
	qr.AppendCol(ones)
	qr.AppendCols(x)
	coeffs, err := qr.Solve(y)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrDegenerate, err)
	}

	// Fitted values in the order MulVec would sum a row of [1 | x]:
	// the intercept term first, then x's columns left to right.
	fitted := make([]float64, n)
	resid := make([]float64, n)
	var ssr float64
	for i := range y {
		var f float64
		f += coeffs[0]
		for j, v := range x.RowView(i) {
			f += v * coeffs[j+1]
		}
		fitted[i] = f
		resid[i] = y[i] - f
		ssr += resid[i] * resid[i]
	}

	ybar := Mean(y)
	var sst float64
	for _, v := range y {
		d := v - ybar
		sst += d * d
	}
	// A zero sst (constant y) pins both measures to 0 — see the
	// contract above.
	r2, adjR2 := 0.0, 0.0
	if sst > 0 {
		r2 = 1 - ssr/sst
		adjR2 = 1 - (1-r2)*float64(n-1)/float64(n-k)
	}

	return &fitCore{
		qr:     qr,
		coeffs: coeffs,
		fitted: fitted,
		resid:  resid,
		ssr:    ssr,
		r2:     r2,
		adjR2:  adjR2,
		n:      n,
		k:      k,
	}, nil
}

// FitOLS regresses y on an intercept and the columns of x (n rows)
// by ordinary least squares via Householder QR. It returns
// ErrDegenerate for rank-deficient designs or n <= k, where k counts
// the intercept.
//
// R² is computed against the mean-centered total sum of squares (the
// standard definition). A constant-y input (sst == 0) yields
// R² = Adj.R² = 0; see fitOLSCore for the degenerate-input contract.
//
// FitOLS pays for the full inference apparatus — leverages, the HC
// sandwich covariance, t statistics and p-values. Callers that only
// consume coefficients and R²/Adj.R² (candidate scoring, VIF
// auxiliary fits, cross-validation scoring) should use FitR2, which
// returns bit-identical values for those fields at a fraction of the
// cost.
func FitOLS(x *mat.Matrix, y []float64, opts OLSOptions) (*OLSResult, error) {
	core, err := fitOLSCore(x, y)
	if err != nil {
		return nil, err
	}
	// The leverages and the sandwich walk the rows of the full design.
	design := prependOnes(x)
	n, k := core.n, core.k
	coeffs, resid := core.coeffs, core.resid

	sigmaSq := core.ssr / float64(n-k)

	// (XᵀX)⁻¹ = R⁻¹ R⁻ᵀ from the QR factor ("bread").
	rinv, err := core.qr.RInverse()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrDegenerate, err)
	}
	bread := mat.Mul(rinv, rinv.T()) // k×k

	// Leverages h_ii = x_iᵀ (XᵀX)⁻¹ x_i, computed row-wise over views
	// with one shared scratch vector — no per-row allocations.
	lev := make([]float64, n)
	bx := make([]float64, k)
	for i := 0; i < n; i++ {
		xi := design.RowView(i)
		bread.MulVecInto(bx, xi)
		var h float64
		for j := range xi {
			h += xi[j] * bx[j]
		}
		lev[i] = h
	}

	cov, err := covariance(design, bread, resid, lev, sigmaSq, opts.Estimator)
	if err != nil {
		return nil, err
	}

	se := make([]float64, k)
	ts := make([]float64, k)
	pv := make([]float64, k)
	df := float64(n - k)
	for j := 0; j < k; j++ {
		v := cov.At(j, j)
		if v < 0 {
			// Tiny negative diagonal from round-off; clamp.
			v = 0
		}
		se[j] = math.Sqrt(v)
		if se[j] > 0 {
			ts[j] = coeffs[j] / se[j]
			pv[j] = 2 * studentTSF(math.Abs(ts[j]), df)
		} else {
			ts[j] = math.Inf(1)
			pv[j] = 0
		}
	}

	return &OLSResult{
		Coeffs:    coeffs,
		StdErr:    se,
		TStats:    ts,
		PValues:   pv,
		Fitted:    core.fitted,
		Residuals: resid,
		R2:        core.r2,
		AdjR2:     core.adjR2,
		SigmaSq:   sigmaSq,
		Cov:       cov,
		Leverages: lev,
		N:         n,
		K:         k,
		Estimator: opts.Estimator,
	}, nil
}

// covariance computes the chosen coefficient covariance matrix.
// bread = (XᵀX)⁻¹; HC estimators use the sandwich
// (XᵀX)⁻¹ Xᵀ diag(w_i e_i²) X (XᵀX)⁻¹.
func covariance(design, bread *mat.Matrix, resid, lev []float64, sigmaSq float64, est CovEstimator) (*mat.Matrix, error) {
	n, k := design.Rows(), design.Cols()
	if est == CovClassic {
		cov := bread.Clone()
		for i := 0; i < k; i++ {
			for j := 0; j < k; j++ {
				cov.Set(i, j, cov.At(i, j)*sigmaSq)
			}
		}
		return cov, nil
	}

	w := make([]float64, n)
	for i := 0; i < n; i++ {
		e2 := resid[i] * resid[i]
		switch est {
		case CovHC0:
			w[i] = e2
		case CovHC1:
			w[i] = e2 * float64(n) / float64(n-k)
		case CovHC2:
			d := 1 - lev[i]
			if d < 1e-10 {
				d = 1e-10
			}
			w[i] = e2 / d
		case CovHC3:
			d := 1 - lev[i]
			if d < 1e-10 {
				d = 1e-10
			}
			w[i] = e2 / (d * d)
		default:
			return nil, fmt.Errorf("stats: unknown covariance estimator %v", est)
		}
	}

	// meat = Xᵀ diag(w) X, computed in place — WeightedCross reproduces
	// Mul(design.T(), design with each row i scaled by w[i]) bit for bit
	// without the two n×k temporaries.
	meat := mat.WeightedCross(design, w)
	cov := mat.Mul(mat.Mul(bread, meat), bread)
	return cov, nil
}

func prependOnes(x *mat.Matrix) *mat.Matrix {
	out := mat.New(x.Rows(), x.Cols()+1)
	for i := 0; i < x.Rows(); i++ {
		out.Set(i, 0, 1)
		for j := 0; j < x.Cols(); j++ {
			out.Set(i, j+1, x.At(i, j))
		}
	}
	return out
}
