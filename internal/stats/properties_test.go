package stats

import (
	"math"
	"testing"
	"testing/quick"

	"pmcpower/internal/mat"
	"pmcpower/internal/rng"
)

// Property-based tests of the regression invariants the modeling
// workflow depends on.

// randomRegression builds a well-conditioned random regression problem
// from a seed.
func randomRegression(seed uint64, n, k int) (*mat.Matrix, []float64) {
	r := rng.New(seed)
	x := mat.New(n, k)
	beta := make([]float64, k)
	for j := range beta {
		beta[j] = r.NormScaled(0, 5)
	}
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		var s float64
		for j := 0; j < k; j++ {
			v := r.Norm()
			x.Set(i, j, v)
			s += v * beta[j]
		}
		y[i] = 1.5 + s + r.NormScaled(0, 0.5)
	}
	return x, y
}

func TestOLSScaleEquivarianceProperty(t *testing.T) {
	// Scaling the target by c scales every coefficient by c and leaves
	// R² unchanged.
	f := func(seed uint64) bool {
		x, y := randomRegression(seed, 40, 3)
		const c = 7.25
		cy := make([]float64, len(y))
		for i, v := range y {
			cy[i] = c * v
		}
		a, err := FitOLS(x, y, OLSOptions{})
		if err != nil {
			return true // skip ill-conditioned draws
		}
		b, err := FitOLS(x, cy, OLSOptions{})
		if err != nil {
			return false
		}
		for j := range a.Coeffs {
			if math.Abs(b.Coeffs[j]-c*a.Coeffs[j]) > 1e-8*(1+math.Abs(c*a.Coeffs[j])) {
				return false
			}
		}
		return math.Abs(a.R2-b.R2) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestOLSColumnScaleInvarianceProperty(t *testing.T) {
	// Scaling a regressor column by c divides its coefficient by c and
	// leaves fitted values (and R²) unchanged — the algebra behind the
	// paper's observation that VIF is what changes under rate
	// normalization, not the fit.
	f := func(seed uint64) bool {
		x, y := randomRegression(seed, 40, 3)
		a, err := FitOLS(x, y, OLSOptions{})
		if err != nil {
			return true
		}
		const c = 250.0
		xs := x.Clone()
		for i := 0; i < xs.Rows(); i++ {
			xs.Set(i, 1, xs.At(i, 1)*c)
		}
		b, err := FitOLS(xs, y, OLSOptions{})
		if err != nil {
			return false
		}
		if math.Abs(b.Coeffs[2]-a.Coeffs[2]/c) > 1e-8*(1+math.Abs(a.Coeffs[2]/c)) {
			return false
		}
		for i := range a.Fitted {
			if math.Abs(a.Fitted[i]-b.Fitted[i]) > 1e-8 {
				return false
			}
		}
		return math.Abs(a.R2-b.R2) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestVIFScaleInvarianceProperty(t *testing.T) {
	// VIF is invariant under per-column rescaling (it is built from
	// R² of auxiliary regressions).
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 60
		x := mat.New(n, 3)
		for i := 0; i < n; i++ {
			a := r.Norm()
			x.Set(i, 0, a)
			x.Set(i, 1, 0.7*a+r.Norm())
			x.Set(i, 2, r.Norm())
		}
		v1, err := VIFColumns(x.Columns(), 1)
		if err != nil {
			return false
		}
		scaled := x.Clone()
		for i := 0; i < n; i++ {
			scaled.Set(i, 0, scaled.At(i, 0)*1000)
			scaled.Set(i, 2, scaled.At(i, 2)*1e-6)
		}
		v2, err := VIFColumns(scaled.Columns(), 1)
		if err != nil {
			return false
		}
		for j := range v1 {
			if math.Abs(v1[j]-v2[j]) > 1e-6*(1+v1[j]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestR2BoundedByNestedModelsProperty(t *testing.T) {
	// Adding a regressor can never decrease in-sample R² — the
	// monotonicity Algorithm 1's greedy search relies on.
	f := func(seed uint64) bool {
		x, y := randomRegression(seed, 50, 4)
		small := mat.New(x.Rows(), 2)
		for i := 0; i < x.Rows(); i++ {
			small.Set(i, 0, x.At(i, 0))
			small.Set(i, 1, x.At(i, 1))
		}
		a, err := FitOLS(small, y, OLSOptions{})
		if err != nil {
			return true
		}
		b, err := FitOLS(x, y, OLSOptions{})
		if err != nil {
			return true
		}
		return b.R2 >= a.R2-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestMAPEPropertiesProperty(t *testing.T) {
	// MAPE is non-negative, zero iff predictions are exact, and
	// invariant under joint positive scaling.
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 20
		a := make([]float64, n)
		p := make([]float64, n)
		for i := range a {
			a[i] = 50 + r.Float64()*200
			p[i] = a[i] * r.Jitter(0.1)
		}
		m := MAPE(a, p)
		if m < 0 {
			return false
		}
		if MAPE(a, a) != 0 {
			return false
		}
		const c = 3.5
		as := make([]float64, n)
		ps := make([]float64, n)
		for i := range a {
			as[i], ps[i] = c*a[i], c*p[i]
		}
		return math.Abs(MAPE(as, ps)-m) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestHCSandwichReducesToClassicProperty(t *testing.T) {
	// With exactly homoscedastic residuals forced (all |e_i| equal),
	// HC0 equals the classic estimator up to the σ̂² convention:
	// HC0 uses Σe²/n per observation, classic uses SSR/(n−k).
	f := func(seed uint64) bool {
		x, y := randomRegression(seed, 30, 2)
		classic, err := FitOLS(x, y, OLSOptions{Estimator: CovClassic})
		if err != nil {
			return true
		}
		hc0, err := FitOLS(x, y, OLSOptions{Estimator: CovHC0})
		if err != nil {
			return false
		}
		// Not equal in general — but both must be finite, positive and
		// within an order of magnitude for well-behaved data.
		for j := range classic.StdErr {
			c, h := classic.StdErr[j], hc0.StdErr[j]
			if !(c > 0 && h > 0) || math.IsNaN(c) || math.IsNaN(h) {
				return false
			}
			if h > 10*c || c > 10*h {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
