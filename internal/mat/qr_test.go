package mat

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"pmcpower/internal/rng"
)

// oracleQR is the textbook row-major Householder QR: the whole matrix
// factored in one loop over its columns, with R in the upper triangle
// and the Householder vectors on and below the diagonal. UpdQR must
// reproduce it bit for bit however its columns arrive, so the tests
// compare against it with ==.
type oracleQR struct {
	m, n int
	qr   *Matrix
	rdia []float64
}

func oracleDecompose(a *Matrix) *oracleQR {
	m, n := a.Rows(), a.Cols()
	qr := a.Clone()
	rdia := make([]float64, n)
	for k := 0; k < n; k++ {
		var nrm float64
		for i := k; i < m; i++ {
			nrm = math.Hypot(nrm, qr.At(i, k))
		}
		if nrm != 0 {
			if qr.At(k, k) < 0 {
				nrm = -nrm
			}
			for i := k; i < m; i++ {
				qr.Set(i, k, qr.At(i, k)/nrm)
			}
			qr.Set(k, k, qr.At(k, k)+1)
			for j := k + 1; j < n; j++ {
				var s float64
				for i := k; i < m; i++ {
					s += qr.At(i, k) * qr.At(i, j)
				}
				s = -s / qr.At(k, k)
				for i := k; i < m; i++ {
					qr.Set(i, j, qr.At(i, j)+s*qr.At(i, k))
				}
			}
		}
		rdia[k] = -nrm
	}
	return &oracleQR{m: m, n: n, qr: qr, rdia: rdia}
}

// solve applies the reflectors to b, then back-substitutes R·x = Qᵀb,
// under UpdQR's relative 1e-12 rank test.
func (d *oracleQR) solve(b []float64) ([]float64, error) {
	var maxd float64
	for _, v := range d.rdia {
		if a := math.Abs(v); a > maxd {
			maxd = a
		}
	}
	for _, v := range d.rdia {
		if maxd == 0 || math.Abs(v) <= 1e-12*maxd {
			return nil, ErrSingular
		}
	}
	y := append([]float64(nil), b...)
	for k := 0; k < d.n; k++ {
		var s float64
		for i := k; i < d.m; i++ {
			s += d.qr.At(i, k) * y[i]
		}
		s = -s / d.qr.At(k, k)
		for i := k; i < d.m; i++ {
			y[i] += s * d.qr.At(i, k)
		}
	}
	x := make([]float64, d.n)
	for k := d.n - 1; k >= 0; k-- {
		s := y[k]
		for j := k + 1; j < d.n; j++ {
			s -= d.qr.At(k, j) * x[j]
		}
		x[k] = s / d.rdia[k]
	}
	return x, nil
}

// sameFactor reports whether u holds the oracle's factorization: every
// compact-storage entry and every diagonal entry of R, compared ==.
func sameFactor(t *testing.T, u *UpdQR, d *oracleQR) bool {
	t.Helper()
	if u.Cols() != d.n || u.Rows() != d.m {
		t.Logf("shape %dx%d, oracle %dx%d", u.Rows(), u.Cols(), d.m, d.n)
		return false
	}
	for j := 0; j < d.n; j++ {
		if u.rdia[j] != d.rdia[j] {
			t.Logf("rdia[%d]: UpdQR %v, oracle %v", j, u.rdia[j], d.rdia[j])
			return false
		}
		for i := 0; i < d.m; i++ {
			if got, want := u.col[j*u.m+i], d.qr.At(i, j); got != want {
				t.Logf("entry (%d,%d): UpdQR %v, oracle %v", i, j, got, want)
				return false
			}
		}
	}
	return true
}

// factorAll is the batch factorization: every column of a in one
// AppendCols.
func factorAll(a *Matrix) *UpdQR {
	u := NewUpdQR(a.Rows(), a.Cols())
	u.AppendCols(a)
	return u
}

func TestQRSolveExact(t *testing.T) {
	// Square, well-conditioned system with a known solution.
	a := FromRows([][]float64{
		{2, 1, 0},
		{1, 3, 1},
		{0, 1, 4},
	})
	want := []float64{1, -2, 3}
	b := a.MulVec(want)
	got, err := factorAll(a).Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-10 {
			t.Fatalf("solution %v, want %v", got, want)
		}
	}
}

func TestQRLeastSquaresResidualOrthogonality(t *testing.T) {
	// For the LS solution, residuals must be orthogonal to the column
	// space: Xᵀ(y − Xβ) = 0.
	r := rng.New(17)
	n, k := 40, 4
	x := New(n, k)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < k; j++ {
			x.Set(i, j, r.Norm())
		}
		y[i] = r.NormScaled(0, 2)
	}
	beta, err := factorAll(x).Solve(y)
	if err != nil {
		t.Fatal(err)
	}
	fitted := x.MulVec(beta)
	resid := make([]float64, n)
	for i := range y {
		resid[i] = y[i] - fitted[i]
	}
	xt := x.T()
	g := xt.MulVec(resid)
	for j, v := range g {
		if math.Abs(v) > 1e-8 {
			t.Fatalf("gradient component %d = %v, want ~0", j, v)
		}
	}
}

func TestQRSingularDetection(t *testing.T) {
	// Third column = first + second → rank deficient.
	a := FromRows([][]float64{
		{1, 2, 3},
		{4, 5, 9},
		{7, 8, 15},
		{1, 0, 1},
	})
	_, err := factorAll(a).Solve([]float64{1, 2, 3, 4})
	if !errors.Is(err, ErrSingular) {
		t.Fatalf("want ErrSingular, got %v", err)
	}
}

func TestQRFullRankCheck(t *testing.T) {
	good := factorAll(FromRows([][]float64{{1, 0}, {0, 1}, {1, 1}}))
	if !good.IsFullRank(1e-12) {
		t.Fatal("well-conditioned matrix reported rank-deficient")
	}
	bad := factorAll(FromRows([][]float64{{1, 2}, {2, 4}, {3, 6}}))
	if bad.IsFullRank(1e-12) {
		t.Fatal("rank-1 matrix reported full rank")
	}
}

func TestRInverse(t *testing.T) {
	// R⁻¹R⁻ᵀ is (XᵀX)⁻¹, so multiplying it by XᵀX gives the identity.
	x := FromRows([][]float64{
		{1, 2, 1},
		{1, -1, 0},
		{1, 0.5, 3},
		{1, 4, -2},
		{1, 1, 1},
	})
	rinv, err := factorAll(x).RInverse()
	if err != nil {
		t.Fatal(err)
	}
	xtx := Mul(x.T(), x)
	if got := Mul(xtx, Mul(rinv, rinv.T())); !Equal(got, Identity(3), 1e-8) {
		t.Fatalf("(XᵀX)·R⁻¹R⁻ᵀ != I:\n%v", got)
	}
	bad := factorAll(FromRows([][]float64{{1, 2}, {2, 4}, {3, 6}}))
	if _, err := bad.RInverse(); !errors.Is(err, ErrSingular) {
		t.Fatalf("rank-deficient RInverse: want ErrSingular, got %v", err)
	}
}

func TestQRUnderdeterminedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("rows < cols must panic")
		}
	}()
	NewUpdQR(2, 3).AppendCols(New(2, 3))
}

func TestQRRecoversKnownCoefficientsProperty(t *testing.T) {
	// Property: for any seed, noiseless y = Xβ recovers β
	// to high precision whenever X is well-conditioned.
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n, k := 25, 5
		x := New(n, k)
		for i := 0; i < n; i++ {
			for j := 0; j < k; j++ {
				x.Set(i, j, r.Norm())
			}
		}
		qr := factorAll(x)
		if !qr.IsFullRank(1e-6) {
			return true // skip pathologically conditioned draws
		}
		beta := make([]float64, k)
		for j := range beta {
			beta[j] = r.NormScaled(0, 10)
		}
		y := x.MulVec(beta)
		got, err := qr.Solve(y)
		if err != nil {
			return false
		}
		for j := range beta {
			if math.Abs(got[j]-beta[j]) > 1e-7*(1+math.Abs(beta[j])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSolveLengthMismatch(t *testing.T) {
	qr := factorAll(Identity(3))
	if _, err := qr.Solve([]float64{1, 2}); err == nil {
		t.Fatal("length mismatch must error")
	}
}
