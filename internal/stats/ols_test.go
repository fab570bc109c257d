package stats

import (
	"errors"
	"math"
	"testing"

	"pmcpower/internal/mat"
	"pmcpower/internal/rng"
)

// makeLinearData builds y = 2 + 3*x1 - 1.5*x2 + noise.
func makeLinearData(n int, noise float64, seed uint64) (*mat.Matrix, []float64) {
	r := rng.New(seed)
	x := mat.New(n, 2)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x1 := r.NormScaled(0, 2)
		x2 := r.NormScaled(1, 3)
		x.Set(i, 0, x1)
		x.Set(i, 1, x2)
		y[i] = 2 + 3*x1 - 1.5*x2 + r.NormScaled(0, noise)
	}
	return x, y
}

func TestFitOLSRecoversCoefficients(t *testing.T) {
	x, y := makeLinearData(500, 0.01, 1)
	res, err := FitOLS(x, y, OLSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 3, -1.5}
	for i, w := range want {
		if math.Abs(res.Coeffs[i]-w) > 0.01 {
			t.Fatalf("coefficient %d = %v, want ~%v", i, res.Coeffs[i], w)
		}
	}
	if res.R2 < 0.999 {
		t.Fatalf("R² = %v for near-noiseless data", res.R2)
	}
	if res.N != 500 || res.K != 3 {
		t.Fatalf("N=%d K=%d", res.N, res.K)
	}
}

func TestFitOLSPerfectFit(t *testing.T) {
	x, y := makeLinearData(50, 0, 2)
	res, err := FitOLS(x, y, OLSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.R2-1) > 1e-12 {
		t.Fatalf("noiseless fit R² = %v, want 1", res.R2)
	}
	for i, e := range res.Residuals {
		if math.Abs(e) > 1e-9 {
			t.Fatalf("residual %d = %v, want ~0", i, e)
		}
	}
}

func TestAdjR2BelowR2(t *testing.T) {
	x, y := makeLinearData(60, 2.0, 3)
	res, err := FitOLS(x, y, OLSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.AdjR2 >= res.R2 {
		t.Fatalf("Adj.R² (%v) must be below R² (%v) for noisy data", res.AdjR2, res.R2)
	}
	if res.R2 <= 0 || res.R2 >= 1 {
		t.Fatalf("noisy R² = %v out of (0,1)", res.R2)
	}
}

func TestResidualsSumToZeroWithIntercept(t *testing.T) {
	x, y := makeLinearData(80, 1.0, 4)
	res, err := FitOLS(x, y, OLSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var s float64
	for _, e := range res.Residuals {
		s += e
	}
	if math.Abs(s) > 1e-8 {
		t.Fatalf("residual sum = %v, want 0 with intercept", s)
	}
}

func TestFitOLSDegenerate(t *testing.T) {
	// Duplicate column → rank deficient.
	x := mat.New(10, 2)
	y := make([]float64, 10)
	r := rng.New(5)
	for i := 0; i < 10; i++ {
		v := r.Norm()
		x.Set(i, 0, v)
		x.Set(i, 1, v)
		y[i] = v
	}
	if _, err := FitOLS(x, y, OLSOptions{}); !errors.Is(err, ErrDegenerate) {
		t.Fatalf("want ErrDegenerate, got %v", err)
	}
	// Too few observations.
	if _, err := FitOLS(mat.New(2, 3), []float64{1, 2}, OLSOptions{}); !errors.Is(err, ErrDegenerate) {
		t.Fatalf("want ErrDegenerate for n<=k, got %v", err)
	}
}

func TestFitOLSRowMismatch(t *testing.T) {
	if _, err := FitOLS(mat.New(5, 2), []float64{1, 2}, OLSOptions{}); err == nil {
		t.Fatal("row mismatch must error")
	}
}

func TestLeveragesSumToK(t *testing.T) {
	// trace(H) = k for the hat matrix.
	x, y := makeLinearData(50, 1, 7)
	res, err := FitOLS(x, y, OLSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var tr float64
	for _, h := range res.Leverages {
		if h < -1e-10 || h > 1+1e-10 {
			t.Fatalf("leverage %v outside [0,1]", h)
		}
		tr += h
	}
	if math.Abs(tr-float64(res.K)) > 1e-8 {
		t.Fatalf("trace(H) = %v, want %d", tr, res.K)
	}
}

func TestHCSEOrdering(t *testing.T) {
	// With heteroscedastic noise, HC3 standard errors are generally
	// the most conservative: HC3 >= HC2 >= HC0 element-wise, and HC1
	// is a fixed inflation of HC0.
	r := rng.New(8)
	n := 120
	x := mat.New(n, 1)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		xi := r.Float64() * 10
		x.Set(i, 0, xi)
		// Noise scale grows with x → heteroscedastic.
		y[i] = 1 + 2*xi + r.NormScaled(0, 0.2+0.5*xi)
	}
	se := map[CovEstimator][]float64{}
	for _, est := range []CovEstimator{CovClassic, CovHC0, CovHC1, CovHC2, CovHC3} {
		res, err := FitOLS(x, y, OLSOptions{Estimator: est})
		if err != nil {
			t.Fatal(err)
		}
		se[est] = res.StdErr
	}
	for j := 0; j < 2; j++ {
		if !(se[CovHC3][j] >= se[CovHC2][j] && se[CovHC2][j] >= se[CovHC0][j]) {
			t.Fatalf("HC ordering violated at coeff %d: HC0=%v HC2=%v HC3=%v",
				j, se[CovHC0][j], se[CovHC2][j], se[CovHC3][j])
		}
		ratio := se[CovHC1][j] / se[CovHC0][j]
		want := math.Sqrt(float64(n) / float64(n-2))
		if math.Abs(ratio-want) > 1e-9 {
			t.Fatalf("HC1/HC0 ratio = %v, want %v", ratio, want)
		}
	}
}

func TestHCSEDoesNotChangeCoefficients(t *testing.T) {
	x, y := makeLinearData(60, 1, 9)
	classic, err := FitOLS(x, y, OLSOptions{Estimator: CovClassic})
	if err != nil {
		t.Fatal(err)
	}
	hc3, err := FitOLS(x, y, OLSOptions{Estimator: CovHC3})
	if err != nil {
		t.Fatal(err)
	}
	for j := range classic.Coeffs {
		if classic.Coeffs[j] != hc3.Coeffs[j] {
			t.Fatal("covariance estimator must not change point estimates")
		}
	}
	if classic.R2 != hc3.R2 {
		t.Fatal("covariance estimator must not change R²")
	}
}

func TestPValuesSignificance(t *testing.T) {
	// Strong signal → tiny p-value; pure-noise regressor → large.
	r := rng.New(10)
	n := 200
	x := mat.New(n, 2)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		signal := r.Norm()
		noiseCol := r.Norm()
		x.Set(i, 0, signal)
		x.Set(i, 1, noiseCol)
		y[i] = 5*signal + r.NormScaled(0, 1)
	}
	res, err := FitOLS(x, y, OLSOptions{Estimator: CovHC3})
	if err != nil {
		t.Fatal(err)
	}
	if res.PValues[1] > 1e-6 {
		t.Fatalf("signal p-value = %v, want tiny", res.PValues[1])
	}
	if res.PValues[2] < 0.01 {
		t.Fatalf("noise p-value = %v, suspiciously small", res.PValues[2])
	}
}

func TestEstimatorString(t *testing.T) {
	if CovHC3.String() != "HC3" || CovClassic.String() != "nonrobust" {
		t.Fatal("estimator names wrong")
	}
}

func TestParseCovEstimator(t *testing.T) {
	// Every estimator round-trips through its String form.
	for _, est := range []CovEstimator{CovClassic, CovHC0, CovHC1, CovHC2, CovHC3} {
		got, err := ParseCovEstimator(est.String())
		if err != nil {
			t.Fatalf("parsing %q: %v", est.String(), err)
		}
		if got != est {
			t.Fatalf("round trip %v → %q → %v", est, est.String(), got)
		}
	}
	// Empty means "not recorded" and defaults to the classic estimator.
	if got, err := ParseCovEstimator(""); err != nil || got != CovClassic {
		t.Fatalf("empty string parsed to %v, %v", got, err)
	}
	for _, bad := range []string{"HC4", "hc3", "robust", "CovEstimator(9)"} {
		if _, err := ParseCovEstimator(bad); err == nil {
			t.Fatalf("%q must not parse", bad)
		}
	}
}
