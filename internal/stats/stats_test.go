package stats

import (
	"math"
	"testing"
	"testing/quick"

	"pmcpower/internal/mat"
	"pmcpower/internal/rng"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanVarianceStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Fatalf("Mean = %v, want 5", m)
	}
	if v := Variance(xs); !almost(v, 32.0/7.0, 1e-12) {
		t.Fatalf("Variance = %v, want %v", v, 32.0/7.0)
	}
	if s := StdDev(xs); !almost(s, math.Sqrt(32.0/7.0), 1e-12) {
		t.Fatalf("StdDev = %v", s)
	}
}

func TestMeanPanicsEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Mean of empty slice must panic")
		}
	}()
	Mean(nil)
}

func TestMinMaxSummary(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	min, max := MinMax(xs)
	if min != -1 || max != 7 {
		t.Fatalf("MinMax = %v,%v", min, max)
	}
	s := Summarize(xs)
	if s.N != 4 || s.Min != -1 || s.Max != 7 || !almost(s.Mean, 2.75, 1e-12) {
		t.Fatalf("Summary = %+v", s)
	}
	if Summarize(nil).N != 0 {
		t.Fatal("empty Summarize must have N=0")
	}
	one := Summarize([]float64{5})
	if one.Std != 0 || one.Mean != 5 {
		t.Fatalf("single-element summary = %+v", one)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if q := Quantile(xs, 0); q != 1 {
		t.Fatalf("q0 = %v", q)
	}
	if q := Quantile(xs, 1); q != 4 {
		t.Fatalf("q1 = %v", q)
	}
	if q := Quantile(xs, 0.5); !almost(q, 2.5, 1e-12) {
		t.Fatalf("median = %v, want 2.5", q)
	}
	// Order must not matter.
	if q := Quantile([]float64{4, 1, 3, 2}, 0.5); !almost(q, 2.5, 1e-12) {
		t.Fatalf("median of shuffled = %v", q)
	}
}

func TestPearsonKnownValues(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	yPos := []float64{2, 4, 6, 8, 10}
	yNeg := []float64{10, 8, 6, 4, 2}
	if c := Pearson(x, yPos); !almost(c, 1, 1e-12) {
		t.Fatalf("perfect positive PCC = %v", c)
	}
	if c := Pearson(x, yNeg); !almost(c, -1, 1e-12) {
		t.Fatalf("perfect negative PCC = %v", c)
	}
	if c := Pearson(x, []float64{3, 3, 3, 3, 3}); !math.IsNaN(c) {
		t.Fatalf("zero-variance PCC = %v, want NaN", c)
	}
}

func TestPearsonRangeProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 30
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = r.Norm()
			y[i] = r.Norm()
		}
		c := Pearson(x, y)
		return c >= -1-1e-12 && c <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPearsonSymmetryAndInvariance(t *testing.T) {
	r := rng.New(21)
	n := 50
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = r.Norm()
		y[i] = 0.3*x[i] + r.Norm()
	}
	if !almost(Pearson(x, y), Pearson(y, x), 1e-12) {
		t.Fatal("PCC must be symmetric")
	}
	// Affine invariance: corr(a*x+b, y) == corr(x, y) for a > 0.
	scaled := make([]float64, n)
	for i := range x {
		scaled[i] = 7*x[i] + 100
	}
	if !almost(Pearson(scaled, y), Pearson(x, y), 1e-10) {
		t.Fatal("PCC must be invariant under positive affine maps")
	}
}

func TestMAPE(t *testing.T) {
	actual := []float64{100, 200}
	pred := []float64{90, 220}
	// |10/100| = 10%, |20/200| = 10% → mean 10%.
	if m := MAPE(actual, pred); !almost(m, 10, 1e-12) {
		t.Fatalf("MAPE = %v, want 10", m)
	}
	if m := MAPE([]float64{50}, []float64{50}); m != 0 {
		t.Fatalf("exact prediction MAPE = %v", m)
	}
	// Zero actuals are skipped.
	if m := MAPE([]float64{0, 100}, []float64{5, 110}); !almost(m, 10, 1e-12) {
		t.Fatalf("MAPE with zero actual = %v, want 10", m)
	}
	if m := MAPE([]float64{0}, []float64{1}); !math.IsNaN(m) {
		t.Fatalf("all-zero actuals MAPE = %v, want NaN", m)
	}
}

func TestAPEDetail(t *testing.T) {
	// Mixed input: one near-zero actual is skipped, two enter.
	st, err := APEDetail([]float64{0, 100, 200}, []float64{5, 90, 240})
	if err != nil {
		t.Fatal(err)
	}
	if st.Used != 2 || st.Skipped != 1 {
		t.Fatalf("accounting = %+v, want Used=2 Skipped=1", st)
	}
	if !almost(st.MAPE, 15, 1e-12) || !almost(st.MaxAPE, 20, 1e-12) {
		t.Fatalf("MAPE/MaxAPE = %v/%v, want 15/20", st.MAPE, st.MaxAPE)
	}

	// All-skipped is an explicit error, not a silent NaN.
	st, err = APEDetail([]float64{0, 1e-12}, []float64{1, 2})
	if err == nil {
		t.Fatal("all-skipped input must error")
	}
	if st.Skipped != 2 || !math.IsNaN(st.MAPE) || !math.IsNaN(st.MaxAPE) {
		t.Fatalf("all-skipped stats = %+v", st)
	}

	// Wrappers agree with the detail form.
	a := []float64{100, 50, 0}
	p := []float64{110, 45, 3}
	st, err = APEDetail(a, p)
	if err != nil {
		t.Fatal(err)
	}
	if MAPE(a, p) != st.MAPE {
		t.Fatal("MAPE wrapper disagrees with APEDetail")
	}
}

func TestKFoldPartition(t *testing.T) {
	r := rng.New(33)
	n, k := 47, 10
	folds, err := KFold(n, k, r)
	if err != nil {
		t.Fatal(err)
	}
	if len(folds) != k {
		t.Fatalf("got %d folds", len(folds))
	}
	seen := make([]int, n)
	for _, f := range folds {
		if len(f.Train)+len(f.Test) != n {
			t.Fatalf("fold sizes %d+%d != %d", len(f.Train), len(f.Test), n)
		}
		for _, i := range f.Test {
			seen[i]++
		}
		// Train and test must be disjoint.
		inTest := map[int]bool{}
		for _, i := range f.Test {
			inTest[i] = true
		}
		for _, i := range f.Train {
			if inTest[i] {
				t.Fatalf("index %d in both train and test", i)
			}
		}
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("index %d appears in %d test sets, want exactly 1", i, c)
		}
	}
	// Fold sizes differ by at most one.
	minSz, maxSz := n, 0
	for _, f := range folds {
		if len(f.Test) < minSz {
			minSz = len(f.Test)
		}
		if len(f.Test) > maxSz {
			maxSz = len(f.Test)
		}
	}
	if maxSz-minSz > 1 {
		t.Fatalf("fold size spread %d..%d", minSz, maxSz)
	}
}

func TestKFoldDeterminism(t *testing.T) {
	f1, err1 := KFold(20, 4, rng.New(5))
	f2, err2 := KFold(20, 4, rng.New(5))
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	for i := range f1 {
		for j := range f1[i].Test {
			if f1[i].Test[j] != f2[i].Test[j] {
				t.Fatal("KFold with identical seed must be identical")
			}
		}
	}
}

func TestKFoldRejectsInvalidK(t *testing.T) {
	// k comes from CLI flags and experiment configs: invalid values
	// must surface as errors, never as panics.
	for _, tc := range []struct{ n, k int }{{5, 1}, {5, 0}, {5, -2}, {3, 4}} {
		folds, err := KFold(tc.n, tc.k, rng.New(1))
		if err == nil {
			t.Fatalf("KFold(%d,%d) must return an error", tc.n, tc.k)
		}
		if folds != nil {
			t.Fatalf("KFold(%d,%d) returned folds alongside error", tc.n, tc.k)
		}
	}
}

func TestVIFOrthogonal(t *testing.T) {
	// Orthogonal-ish independent columns → VIF ≈ 1.
	r := rng.New(44)
	n := 300
	x := mat.New(n, 3)
	for i := 0; i < n; i++ {
		for j := 0; j < 3; j++ {
			x.Set(i, j, r.Norm())
		}
	}
	vifs, err := VIFColumns(x.Columns(), 1)
	if err != nil {
		t.Fatal(err)
	}
	for j, v := range vifs {
		if v < 1 || v > 1.2 {
			t.Fatalf("VIF[%d] = %v for independent columns, want ~1", j, v)
		}
	}
}

func TestVIFCollinear(t *testing.T) {
	// Third column = col0 + col1 + tiny noise → huge VIF.
	r := rng.New(45)
	n := 200
	x := mat.New(n, 3)
	for i := 0; i < n; i++ {
		a := r.Norm()
		b := r.Norm()
		x.Set(i, 0, a)
		x.Set(i, 1, b)
		x.Set(i, 2, a+b+r.NormScaled(0, 0.01))
	}
	vifs, err := VIFColumns(x.Columns(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if vifs[2] < 10 {
		t.Fatalf("VIF of collinear column = %v, want > 10", vifs[2])
	}
	mean, err := MeanVIF(x, 1)
	if err != nil {
		t.Fatal(err)
	}
	if mean < 5 {
		t.Fatalf("mean VIF = %v, want elevated", mean)
	}
}

func TestVIFSingleColumnNaN(t *testing.T) {
	x := mat.New(10, 1)
	for i := 0; i < 10; i++ {
		x.Set(i, 0, float64(i))
	}
	vifs, err := VIFColumns(x.Columns(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(vifs) != 1 || !math.IsNaN(vifs[0]) {
		t.Fatalf("single-column VIF = %v, want [NaN]", vifs)
	}
}

func TestStudentTSF(t *testing.T) {
	// With large df, the t distribution approaches the normal:
	// P(T > 1.96) ≈ 0.025.
	if p := studentTSF(1.96, 10000); !almost(p, 0.025, 0.001) {
		t.Fatalf("t survival at 1.96, df=10000: %v", p)
	}
	// Symmetric reference values for small df (t table):
	// P(T > 2.228) = 0.025 at df = 10.
	if p := studentTSF(2.228, 10); !almost(p, 0.025, 0.0005) {
		t.Fatalf("t survival at 2.228, df=10: %v", p)
	}
	if p := studentTSF(0, 5); !almost(p, 0.5, 1e-9) {
		t.Fatalf("t survival at 0 = %v, want 0.5", p)
	}
	if p := studentTSF(math.Inf(1), 5); p != 0 {
		t.Fatalf("t survival at +Inf = %v", p)
	}
}

func TestRegIncBeta(t *testing.T) {
	// I_x(1,1) = x (uniform CDF).
	for _, x := range []float64{0, 0.25, 0.5, 0.75, 1} {
		if v := regIncBeta(1, 1, x); !almost(v, x, 1e-10) {
			t.Fatalf("I_%v(1,1) = %v", x, v)
		}
	}
	// I_x(2,2) = 3x² − 2x³.
	for _, x := range []float64{0.1, 0.4, 0.9} {
		want := 3*x*x - 2*x*x*x
		if v := regIncBeta(2, 2, x); !almost(v, want, 1e-10) {
			t.Fatalf("I_%v(2,2) = %v, want %v", x, v, want)
		}
	}
}

func TestVIFParallelEquivalence(t *testing.T) {
	// The auxiliary regressions are independent and collected in
	// column order, so parallel VIF must be bit-identical to serial.
	r := rng.New(46)
	n := 150
	x := mat.New(n, 6)
	for i := 0; i < n; i++ {
		a := r.Norm()
		for j := 0; j < 5; j++ {
			x.Set(i, j, a+r.Norm())
		}
		x.Set(i, 5, a+r.NormScaled(0, 0.05))
	}
	serial, err := VIFColumns(x.Columns(), 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := VIFColumns(x.Columns(), 4)
	if err != nil {
		t.Fatal(err)
	}
	for j := range serial {
		if serial[j] != par[j] {
			t.Fatalf("VIF[%d] differs: serial %v, parallel %v", j, serial[j], par[j])
		}
	}
	ms, err := MeanVIF(x, 1)
	if err != nil {
		t.Fatal(err)
	}
	mp, err := MeanVIF(x, 4)
	if err != nil {
		t.Fatal(err)
	}
	if ms != mp {
		t.Fatalf("mean VIF differs: serial %v, parallel %v", ms, mp)
	}
}
