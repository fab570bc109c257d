package stats

import (
	"math"
	"testing"

	"pmcpower/internal/mat"
	"pmcpower/internal/rng"
)

func TestChiSquareSF(t *testing.T) {
	// Reference values: P(χ²(1) > 3.841) = 0.05, P(χ²(5) > 11.07) = 0.05,
	// P(χ²(10) > 18.31) = 0.05.
	cases := []struct {
		x, k, want float64
	}{
		{3.841, 1, 0.05},
		{11.070, 5, 0.05},
		{18.307, 10, 0.05},
		{6.635, 1, 0.01},
		{0, 3, 1},
	}
	for _, c := range cases {
		got := ChiSquareSF(c.x, c.k)
		if math.Abs(got-c.want) > 0.0005 {
			t.Fatalf("ChiSquareSF(%v, %v) = %v, want %v", c.x, c.k, got, c.want)
		}
	}
	if !math.IsNaN(ChiSquareSF(1, -1)) {
		t.Fatal("negative df must be NaN")
	}
}

func TestChiSquareSFMonotone(t *testing.T) {
	// Survival function must decrease in x.
	last := 1.0
	for x := 0.5; x < 40; x += 0.5 {
		v := ChiSquareSF(x, 6)
		if v > last+1e-12 {
			t.Fatalf("SF not monotone at x=%v", x)
		}
		last = v
	}
}

func TestGammaFunctionsConsistency(t *testing.T) {
	// P + Q = 1 across both evaluation branches.
	for _, a := range []float64{0.5, 2, 7.3} {
		for _, x := range []float64{0.1, a, a + 5, 3 * a} {
			q := regIncGammaQ(a, x)
			p := 1 - q
			// Re-evaluate via the series directly where valid.
			if x < a+1 {
				if math.Abs(gammaPSeries(a, x)-p) > 1e-10 {
					t.Fatalf("P/Q inconsistency at a=%v x=%v", a, x)
				}
			}
			if q < 0 || q > 1 {
				t.Fatalf("Q(%v,%v) = %v outside [0,1]", a, x, q)
			}
		}
	}
}

func TestBreuschPaganDetectsHeteroscedasticity(t *testing.T) {
	r := rng.New(1)
	n := 400
	x := mat.New(n, 1)
	yHet := make([]float64, n)
	yHom := make([]float64, n)
	for i := 0; i < n; i++ {
		xi := r.Float64() * 10
		x.Set(i, 0, xi)
		yHet[i] = 2 + 3*xi + r.NormScaled(0, 0.1+0.8*xi) // variance grows with x
		yHom[i] = 2 + 3*xi + r.NormScaled(0, 2)          // constant variance
	}
	het, err := BreuschPagan(x, yHet)
	if err != nil {
		t.Fatal(err)
	}
	if het.PValue > 1e-4 {
		t.Fatalf("heteroscedastic data: p = %v, want tiny", het.PValue)
	}
	hom, err := BreuschPagan(x, yHom)
	if err != nil {
		t.Fatal(err)
	}
	if hom.PValue < 0.01 {
		t.Fatalf("homoscedastic data rejected: p = %v", hom.PValue)
	}
	if het.DF != 1 || hom.DF != 1 {
		t.Fatalf("df = %d/%d, want 1", het.DF, hom.DF)
	}
	if het.LM <= hom.LM {
		t.Fatal("LM statistic must be larger for heteroscedastic data")
	}
}

func TestBreuschPaganErrors(t *testing.T) {
	// Degenerate design propagates the fit error.
	x := mat.New(3, 2)
	if _, err := BreuschPagan(x, []float64{1, 2, 3}); err == nil {
		t.Fatal("degenerate design must error")
	}
}

func TestChiSquareSFNaNPropagation(t *testing.T) {
	// Downstream renderers (expreport) rely on degenerate inputs coming
	// back as NaN — which they convert to "n/a" — rather than as a
	// plausible-looking probability.
	if !math.IsNaN(ChiSquareSF(math.NaN(), 3)) {
		t.Fatal("ChiSquareSF(NaN, 3) must be NaN")
	}
	if !math.IsNaN(ChiSquareSF(5, 0)) {
		t.Fatal("ChiSquareSF(5, 0) must be NaN")
	}
	if !math.IsNaN(ChiSquareSF(5, -1)) {
		t.Fatal("ChiSquareSF with negative df must be NaN")
	}
	if got := ChiSquareSF(-2, 3); got != 1 {
		t.Fatalf("ChiSquareSF(-2, 3) = %v, want 1", got)
	}
}

func TestVIFSingleColumnNaNPropagation(t *testing.T) {
	// A one-column design has no other columns to regress on: VIF is
	// undefined and comes back as a single NaN (the paper's "n/a" entry
	// for the first counter), which MeanVIF propagates.
	x := mat.New(4, 1)
	for i := 0; i < 4; i++ {
		x.Set(i, 0, float64(i+1))
	}
	vs, err := VIFColumns(x.Columns(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 1 || !math.IsNaN(vs[0]) {
		t.Fatalf("VIF of single column = %v, want [NaN]", vs)
	}
	mv, err := MeanVIF(x, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(mv) {
		t.Fatalf("MeanVIF of single column = %v, want NaN", mv)
	}
}
