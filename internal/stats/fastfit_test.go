package stats

import (
	"errors"
	"testing"
	"testing/quick"

	"pmcpower/internal/mat"
	"pmcpower/internal/rng"
)

// randDesign builds a random n×k design and correlated target.
func randDesign(r *rng.Rand, n, k int) (*mat.Matrix, []float64) {
	x := mat.New(n, k)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		var s float64
		for j := 0; j < k; j++ {
			v := r.NormScaled(0, 2)
			x.Set(i, j, v)
			s += float64(j+1) * v
		}
		y[i] = 1 + s + r.NormScaled(0, 0.5)
	}
	return x, y
}

func TestFitR2MatchesFitOLSBitwiseProperty(t *testing.T) {
	// The fast path runs the same QR solve and goodness-of-fit
	// arithmetic as FitOLS, so Coeffs, R², Adj.R² and SSR must agree
	// exactly (==, not within tolerance) across random inputs. The
	// fitted values must be MulVec of the explicit design [1 | x] bit
	// for bit, though the fit never builds it.
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 15 + int(seed%50)
		k := 1 + int(seed%4)
		x, y := randDesign(r, n, k)

		full, err1 := FitOLS(x, y, OLSOptions{})
		fast, err2 := FitR2(x, y)
		if (err1 == nil) != (err2 == nil) {
			t.Logf("error mismatch: full %v, fast %v", err1, err2)
			return false
		}
		if err1 != nil {
			return true
		}
		if len(full.Coeffs) != len(fast.Coeffs) {
			return false
		}
		for j := range full.Coeffs {
			if full.Coeffs[j] != fast.Coeffs[j] {
				t.Logf("coeff %d: full %v, fast %v", j, full.Coeffs[j], fast.Coeffs[j])
				return false
			}
		}
		for i, v := range prependOnes(x).MulVec(full.Coeffs) {
			if full.Fitted[i] != v {
				t.Logf("fitted %d: %v, MulVec %v", i, full.Fitted[i], v)
				return false
			}
		}
		var ssr float64
		for _, e := range full.Residuals {
			ssr += e * e
		}
		return full.R2 == fast.R2 && full.AdjR2 == fast.AdjR2 &&
			ssr == fast.SSR && full.N == fast.N && full.K == fast.K && full.K == k+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestFitR2DegenerateMatchesFitOLS(t *testing.T) {
	// Both paths must reject the same degenerate inputs with
	// ErrDegenerate: rank-deficient designs and n <= k.
	r := rng.New(42)
	x := mat.New(12, 2)
	y := make([]float64, 12)
	for i := 0; i < 12; i++ {
		v := r.Norm()
		x.Set(i, 0, v)
		x.Set(i, 1, 2*v) // exact collinearity
		y[i] = v
	}
	if _, err := FitOLS(x, y, OLSOptions{}); !errors.Is(err, ErrDegenerate) {
		t.Fatalf("FitOLS: want ErrDegenerate, got %v", err)
	}
	if _, err := FitR2(x, y); !errors.Is(err, ErrDegenerate) {
		t.Fatalf("FitR2: want ErrDegenerate, got %v", err)
	}
	if _, err := FitR2(mat.New(2, 3), []float64{1, 2}); !errors.Is(err, ErrDegenerate) {
		t.Fatalf("FitR2 n<=k: want ErrDegenerate, got %v", err)
	}
	if _, err := FitR2(mat.New(5, 2), []float64{1, 2}); err == nil {
		t.Fatal("FitR2 row mismatch must error")
	}
}

func TestConstantTargetR2ContractAgrees(t *testing.T) {
	// sst == 0 (constant y) pins R² = Adj.R² = 0 on both paths — the
	// documented degenerate contract. Before this contract the Adj.R²
	// of a constant target underflowed to an arbitrary negative value.
	r := rng.New(43)
	n := 30
	x := mat.New(n, 2)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x.Set(i, 0, r.Norm())
		x.Set(i, 1, r.Norm())
		y[i] = 7.25
	}
	full, err := FitOLS(x, y, OLSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := FitR2(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if full.R2 != 0 || full.AdjR2 != 0 {
		t.Fatalf("FitOLS constant y: R²=%v Adj.R²=%v, want 0, 0", full.R2, full.AdjR2)
	}
	if fast.R2 != 0 || fast.AdjR2 != 0 {
		t.Fatalf("FitR2 constant y: R²=%v Adj.R²=%v, want 0, 0", fast.R2, fast.AdjR2)
	}
	// An all-zero y is constant too.
	zeroY := make([]float64, n)
	fast0, err := FitR2(x, zeroY)
	if err != nil {
		t.Fatal(err)
	}
	if fast0.R2 != 0 || fast0.AdjR2 != 0 {
		t.Fatalf("all-zero y: R²=%v Adj.R²=%v, want 0, 0", fast0.R2, fast0.AdjR2)
	}
}

func TestVIFColumnsMatchesVIFP(t *testing.T) {
	// The column-store VIF entry point must agree with itself at every
	// parallelism level, and the matrix-based MeanVIF must be the mean
	// of its VIFs.
	r := rng.New(44)
	n, k := 60, 4
	x := mat.New(n, k)
	base := make([]float64, n)
	for i := 0; i < n; i++ {
		base[i] = r.Norm()
		x.Set(i, 0, base[i])
		x.Set(i, 1, base[i]+r.NormScaled(0, 0.3)) // correlated with col 0
		x.Set(i, 2, r.Norm())
		x.Set(i, 3, r.Norm())
	}
	want, err := VIFColumns(x.Columns(), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 0} {
		got, err := VIFColumns(x.Columns(), p)
		if err != nil {
			t.Fatal(err)
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("parallelism %d: VIF[%d] = %v, want %v", p, j, got[j], want[j])
			}
		}
		mean, err := MeanVIF(x, p)
		if err != nil {
			t.Fatal(err)
		}
		if mean != Mean(want) {
			t.Fatalf("parallelism %d: MeanVIF = %v, want %v", p, mean, Mean(want))
		}
	}
}
