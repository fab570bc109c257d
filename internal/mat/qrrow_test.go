package mat

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"pmcpower/internal/rng"
)

// randRows returns m random k-feature rows (with a leading 1s column,
// as regression designs have) and their targets.
func randRows(r *rng.Rand, m, k int) (rows [][]float64, ys []float64) {
	rows = make([][]float64, m)
	ys = make([]float64, m)
	for i := 0; i < m; i++ {
		row := make([]float64, k)
		row[0] = 1
		for j := 1; j < k; j++ {
			row[j] = r.NormScaled(0, 2)
		}
		rows[i] = row
		ys[i] = r.NormScaled(1, 3)
	}
	return rows, ys
}

// batchSolve fits the same rows with the batch Householder QR — the
// reference the row-update factorization is measured against.
func batchSolve(rows [][]float64, ys []float64) ([]float64, error) {
	return factorAll(FromRows(rows)).Solve(ys)
}

// coefTol is the documented equivalence tolerance between a RowQR
// solve and a batch Householder refit of the identical row window.
// Givens and Householder rotations order the arithmetic differently,
// so bit identity is not attainable (unlike UpdQR's column append);
// for well-conditioned designs the two agree to ~1e-10 relative, and
// the tests assert 1e-8 to leave headroom for unlucky draws.
const coefTol = 1e-8

func coefsClose(a, b []float64, tol float64) bool {
	for i := range a {
		scale := math.Abs(a[i]) + math.Abs(b[i]) + 1
		if math.Abs(a[i]-b[i]) > tol*scale {
			return false
		}
	}
	return true
}

func TestRowQRMatchesBatchFit(t *testing.T) {
	// Appending rows one at a time must reproduce the batch
	// least-squares fit of the same rows within coefTol.
	f := func(seed uint64) bool {
		r := rng.New(seed)
		m := 20 + int(seed%40)
		k := 2 + int(seed%5)
		rows, ys := randRows(r, m, k)

		q := NewRowQR(k)
		for i := range rows {
			q.AppendRow(rows[i], ys[i])
		}
		got, err := q.Solve()
		if err != nil {
			t.Logf("RowQR solve: %v", err)
			return false
		}
		want, err := batchSolve(rows, ys)
		if err != nil {
			t.Logf("batch solve: %v", err)
			return false
		}
		if !coefsClose(got, want, coefTol) {
			t.Logf("coefs: rowqr %v, batch %v", got, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRowQRReplayBitIdentical(t *testing.T) {
	// Replaying the same rows through a fresh RowQR reproduces R, z,
	// and the solution bit for bit — the deterministic-replay half of
	// the equivalence contract (the FP operation order is identical, so
	// == holds).
	r := rng.New(7)
	rows, ys := randRows(r, 60, 5)
	a, b := NewRowQR(5), NewRowQR(5)
	for i := range rows {
		a.AppendRow(rows[i], ys[i])
		b.AppendRow(rows[i], ys[i])
	}
	for i := range a.r {
		if a.r[i] != b.r[i] {
			t.Fatalf("r[%d]: %v vs %v", i, a.r[i], b.r[i])
		}
	}
	for i := range a.z {
		if a.z[i] != b.z[i] {
			t.Fatalf("z[%d]: %v vs %v", i, a.z[i], b.z[i])
		}
	}
	ca, err1 := a.Solve()
	cb, err2 := b.Solve()
	if err1 != nil || err2 != nil {
		t.Fatalf("solve: %v / %v", err1, err2)
	}
	for i := range ca {
		if ca[i] != cb[i] {
			t.Fatalf("coef[%d]: %v vs %v", i, ca[i], cb[i])
		}
	}
}

func TestRowQRDowndateMatchesBatchOfRemainder(t *testing.T) {
	// Append a window, downdate a prefix of it, and the solution must
	// match a batch fit of the surviving rows — the sliding-window
	// invariant a refitting core.StreamSession depends on.
	f := func(seed uint64) bool {
		r := rng.New(seed)
		m := 30 + int(seed%30)
		k := 2 + int(seed%5)
		drop := 1 + int(seed%8)
		rows, ys := randRows(r, m, k)

		q := NewRowQR(k)
		for i := range rows {
			q.AppendRow(rows[i], ys[i])
		}
		for i := 0; i < drop; i++ {
			if err := q.DowndateRow(rows[i], ys[i]); err != nil {
				t.Logf("downdate row %d: %v", i, err)
				return false
			}
		}
		got, err := q.Solve()
		if err != nil {
			t.Logf("solve after downdate: %v", err)
			return false
		}
		want, err := batchSolve(rows[drop:], ys[drop:])
		if err != nil {
			t.Logf("batch solve: %v", err)
			return false
		}
		if !coefsClose(got, want, coefTol) {
			t.Logf("coefs: rowqr %v, batch %v", got, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRowQRUnderdeterminedIsSingular(t *testing.T) {
	// Fewer rows than features: the diagonal cannot fill in, and the
	// solve must refuse rather than divide by ~0.
	q := NewRowQR(3)
	q.AppendRow([]float64{1, 2, 3}, 1)
	q.AppendRow([]float64{1, 1, 0}, 2)
	if _, err := q.Solve(); !errors.Is(err, ErrSingular) {
		t.Fatalf("solve on 2 rows of 3 features: got %v, want ErrSingular", err)
	}
}

func TestRowQRDowndateBreakdown(t *testing.T) {
	// Removing a row that was never appended must trip the hyperbolic
	// breakdown guard rather than fabricate a factorization: here the
	// phantom row carries more mass than R holds.
	q := NewRowQR(2)
	q.AppendRow([]float64{1, 1}, 1)
	q.AppendRow([]float64{1, -1}, 2)
	if err := q.DowndateRow([]float64{10, 10}, 5); !errors.Is(err, ErrDowndate) {
		t.Fatalf("downdating a phantom row: got %v, want ErrDowndate", err)
	}
}

func TestRowQRAppendDowndateAllocFree(t *testing.T) {
	// The per-sample operations must be allocation-free: this is the
	// kernel under the refit window's zero-alloc steady-state contract.
	r := rng.New(3)
	rows, ys := randRows(r, 40, 5)
	q := NewRowQR(5)
	for i := range rows {
		q.AppendRow(rows[i], ys[i])
	}
	coef := make([]float64, 5)
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		if err := q.DowndateRow(rows[i%len(rows)], ys[i%len(rows)]); err != nil {
			t.Fatal(err)
		}
		q.AppendRow(rows[i%len(rows)], ys[i%len(rows)])
		if err := q.SolveInto(coef); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("downdate+append+solve allocated %v times per run, want 0", allocs)
	}
}

func BenchmarkRowQRAppendRow(b *testing.B) {
	r := rng.New(1)
	rows, ys := randRows(r, 256, 9)
	q := NewRowQR(9)
	for i := range rows {
		q.AppendRow(rows[i], ys[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(rows)
		if err := q.DowndateRow(rows[j], ys[j]); err != nil {
			b.Fatal(err)
		}
		q.AppendRow(rows[j], ys[j])
	}
}
