package stats

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"pmcpower/internal/mat"
	"pmcpower/internal/rng"
)

// rlsCoefTol is the documented full-window-refit tolerance: RLS
// coefficients after a slide must match a from-scratch batch fit
// (FitR2) of the identical window. Givens/hyperbolic rotations
// and Householder reflections order the arithmetic differently, so
// the match is to rounding, not bit-identical; 1e-7 relative leaves
// headroom over the ~1e-10 typically observed on conditioned designs
// after thousands of slides.
const rlsCoefTol = 1e-7

// rlsRow synthesizes one design row (leading intercept column) and a
// noisy linear target, so the windowed fit has a meaningful solution.
func rlsRow(r *rng.Rand, k int, x []float64) (y float64) {
	x[0] = 1
	y = 2 // intercept of the generating model
	for j := 1; j < k; j++ {
		x[j] = r.NormScaled(0, 2)
		y += float64(j) * 0.5 * x[j]
	}
	return y + r.NormScaled(0, 0.1)
}

// batchRefit fits the fitter's retained window, copied from its ring
// oldest first, from scratch with the batch kernel. The window rows
// lead with the intercept's 1, which FitR2 adds itself.
func batchRefit(t *testing.T, r *RLS) []float64 {
	t.Helper()
	stride := r.k + 1
	start := 0
	if r.n == r.window {
		start = r.head
	}
	var rows [][]float64
	var ys []float64
	for i := 0; i < r.n; i++ {
		row := r.ring[(start+i)%r.window*stride:][:stride]
		rows = append(rows, row[:r.k])
		ys = append(ys, row[r.k])
	}
	res, err := FitR2(withoutIntercept(rows), ys)
	if err != nil {
		t.Fatalf("batch refit: %v", err)
	}
	return res.Coeffs
}

// withoutIntercept returns the rows, minus their leading 1, as a
// matrix.
func withoutIntercept(rows [][]float64) *mat.Matrix {
	x := mat.New(len(rows), len(rows[0])-1)
	for i, row := range rows {
		copy(x.RowView(i), row[1:])
	}
	return x
}

func TestRLSWindowMatchesBatchRefit(t *testing.T) {
	// The tentpole equivalence contract: after an arbitrary number of
	// slides, Coefficients over the window equals a from-scratch batch
	// fit of the same rows within rlsCoefTol.
	f := func(seed uint64) bool {
		r := rng.New(seed)
		k := 2 + int(seed%5)
		window := 4*k + int(seed%17)
		total := window + int(seed%200) // slide well past one window
		rls, err := NewRLS(k, window)
		if err != nil {
			t.Fatal(err)
		}
		x := make([]float64, k)
		for i := 0; i < total; i++ {
			y := rlsRow(r, k, x)
			if err := rls.Push(x, y); err != nil {
				t.Fatal(err)
			}
		}
		got := make([]float64, k)
		if err := rls.Coefficients(got); err != nil {
			t.Logf("coefficients: %v", err)
			return false
		}
		want := batchRefit(t, rls)
		for j := range got {
			scale := math.Abs(got[j]) + math.Abs(want[j]) + 1
			if math.Abs(got[j]-want[j]) > rlsCoefTol*scale {
				t.Logf("coef %d: rls %v, batch %v", j, got[j], want[j])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestRLSReplayBitIdentical(t *testing.T) {
	// Same stream, fresh fitter: coefficients must agree to the bit —
	// the FP operation order is identical, so == is the contract.
	gen := func(rls *RLS) []float64 {
		r := rng.New(99)
		x := make([]float64, 4)
		for i := 0; i < 500; i++ {
			y := rlsRow(r, 4, x)
			if err := rls.Push(x, y); err != nil {
				panic(err)
			}
		}
		coef := make([]float64, 4)
		if err := rls.Coefficients(coef); err != nil {
			panic(err)
		}
		return coef
	}
	a, _ := NewRLS(4, 64)
	b, _ := NewRLS(4, 64)
	ca, cb := gen(a), gen(b)
	for j := range ca {
		if ca[j] != cb[j] {
			t.Fatalf("coef %d: %v vs %v", j, ca[j], cb[j])
		}
	}
}

func TestRLSNotReadyIsSingular(t *testing.T) {
	rls, err := NewRLS(3, 8)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{1, 2, 3}
	if err := rls.Push(x, 1); err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, 3)
	if err := rls.Coefficients(dst); !errors.Is(err, mat.ErrSingular) {
		t.Fatalf("underdetermined coefficients: got %v, want ErrSingular", err)
	}
}

func TestRLSRejectsBadShapes(t *testing.T) {
	if _, err := NewRLS(0, 10); err == nil {
		t.Fatal("NewRLS(0, 10) succeeded")
	}
	if _, err := NewRLS(5, 5); err == nil {
		t.Fatal("NewRLS(5, 5) succeeded (window must exceed k)")
	}
	rls, err := NewRLS(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := rls.Push([]float64{1}, 0); err == nil {
		t.Fatal("Push with short row succeeded")
	}
	if err := rls.Coefficients(make([]float64, 3)); err == nil {
		t.Fatal("Coefficients with wrong-size buffer succeeded")
	}
}

func TestRLSRecoversFromBreakdownRebuild(t *testing.T) {
	// Force a downdate breakdown by corrupting the factorization scale:
	// a run of near-identical rows followed by one huge outlier row
	// makes the eventual outlier downdate hyperbolically marginal. We
	// cannot reliably trigger breakdown from well-behaved data, so this
	// test exercises the rebuild path directly instead and asserts the
	// window fit stays equivalent afterwards.
	rls, err := NewRLS(2, 6)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(5)
	x := make([]float64, 2)
	for i := 0; i < 40; i++ {
		y := rlsRow(r, 2, x)
		if err := rls.Push(x, y); err != nil {
			t.Fatal(err)
		}
	}
	// Rebuild unconditionally (as Push does on ErrDowndate) and verify
	// the surviving window still matches its batch refit.
	rls.rebuildWithoutOldest()
	if rls.n != rls.window-1 {
		t.Fatalf("rows after rebuild: %d, want %d", rls.n, rls.window-1)
	}
	if rls.Rebuilds() != 1 {
		t.Fatalf("rebuilds: %d, want 1", rls.Rebuilds())
	}
	// Note the ring still holds the dropped row at the head slot; the
	// next Push overwrites it, exactly like the in-Push rebuild path.
	y := rlsRow(r, 2, x)
	if err := rls.Push(x, y); err != nil {
		t.Fatal(err)
	}
	got := make([]float64, 2)
	if err := rls.Coefficients(got); err != nil {
		t.Fatal(err)
	}
	want := batchRefit(t, rls)
	for j := range got {
		if math.Abs(got[j]-want[j]) > rlsCoefTol*(math.Abs(want[j])+1) {
			t.Fatalf("coef %d after rebuild: rls %v, batch %v", j, got[j], want[j])
		}
	}
}

func TestRLSSteadyStateAllocFree(t *testing.T) {
	// The serving-path contract: once the window is primed, Push and
	// Coefficients allocate nothing.
	rls, err := NewRLS(5, 64)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(21)
	// A cycle of distinct rows keeps the window full-rank no matter
	// how many times the gated closure runs.
	const cycle = 16
	xs := make([][]float64, cycle)
	ys := make([]float64, cycle)
	for i := range xs {
		xs[i] = make([]float64, 5)
		ys[i] = rlsRow(r, 5, xs[i])
	}
	for i := 0; i < 128; i++ {
		if err := rls.Push(xs[i%cycle], ys[i%cycle]); err != nil {
			t.Fatal(err)
		}
	}
	dst := make([]float64, 5)
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		if err := rls.Push(xs[i%cycle], ys[i%cycle]); err != nil {
			t.Fatal(err)
		}
		if err := rls.Coefficients(dst); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("steady-state Push+Coefficients allocated %v times per run, want 0", allocs)
	}
}

// BenchmarkRLSPush measures the steady-state per-sample update at the
// serving path's shape (6 events + V²f + V + intercept = 9 features,
// 256-sample window) — the per-sample refit cost CHANGES.md records
// for streaming refit.
func BenchmarkRLSPush(b *testing.B) {
	rls, err := NewRLS(9, 256)
	if err != nil {
		b.Fatal(err)
	}
	xs, ys := benchRows(rng.New(1), 9, 512)
	for i := 0; i < 512; i++ {
		if err := rls.Push(xs[i], ys[i]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(xs)
		if err := rls.Push(xs[j], ys[j]); err != nil {
			b.Fatal(err)
		}
	}
}

// benchRows pre-generates a pool of distinct rows so the benchmark
// loop never drives the window rank-deficient however long it runs.
func benchRows(r *rng.Rand, k, n int) ([][]float64, []float64) {
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = make([]float64, k)
		ys[i] = rlsRow(r, k, xs[i])
	}
	return xs, ys
}

// BenchmarkRLSPushSolve adds the coefficient solve, the full per-sample
// refit cost the serve layer pays per labelled sample.
func BenchmarkRLSPushSolve(b *testing.B) {
	rls, err := NewRLS(9, 256)
	if err != nil {
		b.Fatal(err)
	}
	xs, ys := benchRows(rng.New(2), 9, 512)
	for i := 0; i < 512; i++ {
		if err := rls.Push(xs[i], ys[i]); err != nil {
			b.Fatal(err)
		}
	}
	dst := make([]float64, 9)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(xs)
		if err := rls.Push(xs[j], ys[j]); err != nil {
			b.Fatal(err)
		}
		if err := rls.Coefficients(dst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRLSBatchRefit is the counterfactual: a from-scratch batch
// fit of the same window per sample — what streaming refit would cost
// without the incremental kernel.
func BenchmarkRLSBatchRefit(b *testing.B) {
	r := rng.New(3)
	const k, window = 9, 256
	rows := make([][]float64, window)
	ys := make([]float64, window)
	for i := range rows {
		x := make([]float64, k)
		ys[i] = rlsRow(r, k, x)
		rows[i] = x
	}
	x := withoutIntercept(rows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FitR2(x, ys); err != nil {
			b.Fatal(err)
		}
	}
}
