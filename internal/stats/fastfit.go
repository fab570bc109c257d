package stats

import (
	"pmcpower/internal/mat"
)

// FitR2Result holds the outputs of the R²-only fast fit: everything a
// scoring loop needs and nothing it discards.
type FitR2Result struct {
	// Coeffs are the fitted coefficients: the intercept first, then
	// one per column of x.
	Coeffs []float64
	// R2 and AdjR2 are the (adjusted) coefficient of determination.
	R2, AdjR2 float64
	// SSR is the residual sum of squares.
	SSR float64
	// N and K are the number of observations and regressors (including
	// the intercept).
	N, K int
}

// FitR2 is the R²-only fast path of FitOLS: the same Householder QR
// decomposition and least-squares solve (so Coeffs, R2 and AdjR2 are
// bit-identical to a full FitOLS of the same input — enforced by
// property tests), skipping everything a scoring caller discards: the
// O(n·k²) leverage loop, the HC sandwich covariance, R⁻¹, and the
// t/p statistics. VIF auxiliary regressions, cross-validation folds
// and scenario holdouts use it; final model training keeps FitOLS for
// the inference outputs.
//
// Error behaviour matches FitOLS exactly: ErrDegenerate for n <= k or
// a rank-deficient design (same 1e-12 relative tolerance), and the
// shared constant-y contract R² = Adj.R² = 0 when sst == 0 (see
// fitOLSCore). An input rejected by one path is rejected by the other.
func FitR2(x *mat.Matrix, y []float64) (*FitR2Result, error) {
	core, err := fitOLSCore(x, y)
	if err != nil {
		return nil, err
	}
	return &FitR2Result{
		Coeffs: core.coeffs,
		R2:     core.r2,
		AdjR2:  core.adjR2,
		SSR:    core.ssr,
		N:      core.n,
		K:      core.k,
	}, nil
}
