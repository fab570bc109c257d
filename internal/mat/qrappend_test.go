package mat

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"pmcpower/internal/rng"
)

// randTall returns a random m×n (m > n) matrix and a random rhs.
func randTall(r *rng.Rand, m, n int) (*Matrix, []float64) {
	x := New(m, n)
	b := make([]float64, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			x.Set(i, j, r.NormScaled(0, 2))
		}
		b[i] = r.NormScaled(1, 3)
	}
	return x, b
}

// appendAll feeds every column of x to u in order.
func appendAll(u *UpdQR, x *Matrix) {
	m, n := x.Rows(), x.Cols()
	c := make([]float64, m)
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			c[i] = x.At(i, j)
		}
		u.AppendCol(c)
	}
}

func TestUpdQRMatchesFreshQRBitwise(t *testing.T) {
	// Column-by-column appends, one AppendCols of the whole matrix, and
	// a column followed by AppendCols of the rest (the OLS fit's
	// [1 | x]) must all reproduce the textbook oracle exactly: the same
	// compact storage, the same R diagonal, the same least-squares
	// solution, to the last bit. Householder QR touches columns strictly
	// left to right, so the append order is the decomposition order.
	f := func(seed uint64) bool {
		r := rng.New(seed)
		m := 20 + int(seed%40)
		n := 2 + int(seed%5)
		x, b := randTall(r, m, n)
		fresh := oracleDecompose(x)
		want, errW := fresh.solve(b)

		one := NewUpdQR(m, n)
		appendAll(one, x)
		batch := factorAll(x)
		split := NewUpdQR(m, n)
		split.AppendCol(x.Col(0))
		rest := New(m, n-1)
		for i := 0; i < m; i++ {
			copy(rest.RowView(i), x.RowView(i)[1:])
		}
		split.AppendCols(rest)

		for _, u := range []*UpdQR{one, batch, split} {
			if !sameFactor(t, u, fresh) {
				return false
			}
			got, err := u.Solve(b)
			if (errW == nil) != (err == nil) {
				return false
			}
			for j := range want {
				if got[j] != want[j] {
					t.Logf("coeff %d: UpdQR %v, oracle %v", j, got[j], want[j])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestUpdQRNearCollinearMatchesFreshQR(t *testing.T) {
	// A nearly collinear trailing column is the numerically nastiest
	// append: the reflector chain must cancel almost all of it. The
	// factorization still matches a fresh decomposition bitwise because
	// the arithmetic is identical, and the solve agrees within 1e-10.
	r := rng.New(99)
	m, n := 60, 4
	x, b := randTall(r, m, n)
	// Make column 3 = column 1 + tiny noise.
	for i := 0; i < m; i++ {
		x.Set(i, 3, x.At(i, 1)+r.NormScaled(0, 1e-9))
	}

	u := NewUpdQR(m, n)
	appendAll(u, x)
	fresh := oracleDecompose(x)

	if !sameFactor(t, u, fresh) {
		t.Fatal("near-collinear factorization differs from the oracle")
	}
	want, errW := fresh.solve(b)
	got, errG := u.Solve(b)
	if (errW == nil) != (errG == nil) {
		t.Fatalf("solve error mismatch: fresh %v, append %v", errW, errG)
	}
	if errW == nil {
		for j := range want {
			if math.Abs(got[j]-want[j]) > 1e-10 {
				t.Fatalf("near-collinear coeff %d: append %v, fresh %v", j, got[j], want[j])
			}
		}
	}
}

func TestUpdQRTruncateAndReappend(t *testing.T) {
	// The selection inner loop's access pattern: factor a shared
	// prefix, then repeatedly truncate back and append a different
	// candidate column. Every round must match a fresh decomposition of
	// the corresponding full matrix.
	r := rng.New(7)
	m, p := 50, 3
	prefix, b := randTall(r, m, p)

	u := NewUpdQR(m, p+1)
	appendAll(u, prefix)

	for trial := 0; trial < 5; trial++ {
		cand := make([]float64, m)
		for i := range cand {
			cand[i] = r.NormScaled(0, 1.5)
		}
		u.Truncate(p)
		u.AppendCol(cand)

		full := New(m, p+1)
		for i := 0; i < m; i++ {
			for j := 0; j < p; j++ {
				full.Set(i, j, prefix.At(i, j))
			}
			full.Set(i, p, cand[i])
		}
		want, err := oracleDecompose(full).solve(b)
		if err != nil {
			t.Fatal(err)
		}
		got, err := u.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("trial %d coeff %d: append %v, fresh %v", trial, j, got[j], want[j])
			}
		}
	}
}

func TestUpdQRSolveIntoMatchesSolveAndChecksLengths(t *testing.T) {
	r := rng.New(21)
	m, n := 30, 3
	x, b := randTall(r, m, n)
	u := NewUpdQR(m, n)
	appendAll(u, x)

	want, err := u.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]float64, n)
	ybuf := make([]float64, m)
	if err := u.SolveInto(got, ybuf, b); err != nil {
		t.Fatal(err)
	}
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("SolveInto coeff %d: %v, want %v", j, got[j], want[j])
		}
	}
	// b must not be modified by the solve.
	b2 := append([]float64(nil), b...)
	if err := u.SolveInto(got, ybuf, b2); err != nil {
		t.Fatal(err)
	}
	for i := range b {
		if b2[i] != b[i] {
			t.Fatal("SolveInto modified the right-hand side")
		}
	}
	if err := u.SolveInto(got, ybuf, b[:m-1]); err == nil {
		t.Fatal("short b must error")
	}
	if err := u.SolveInto(got[:n-1], ybuf, b); err == nil {
		t.Fatal("short x must error")
	}
	if err := u.SolveInto(got, ybuf[:m-1], b); err == nil {
		t.Fatal("short scratch must error")
	}
}

func TestUpdQRSolveIntoAllocFree(t *testing.T) {
	r := rng.New(33)
	m, n := 40, 4
	x, b := randTall(r, m, n)
	u := NewUpdQR(m, n)
	appendAll(u, x)
	sol := make([]float64, n)
	ybuf := make([]float64, m)
	allocs := testing.AllocsPerRun(100, func() {
		if err := u.SolveInto(sol, ybuf, b); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("SolveInto allocated %v times per run, want 0", allocs)
	}
}

func TestUpdQRRankDeficiency(t *testing.T) {
	// A duplicated column must be flagged: ErrSingular at the relative
	// 1e-12 tolerance.
	r := rng.New(11)
	m := 25
	c := make([]float64, m)
	for i := range c {
		c[i] = r.Norm()
	}
	u := NewUpdQR(m, 2)
	u.AppendCol(c)
	u.AppendCol(c)
	if u.IsFullRank(1e-12) {
		t.Fatal("duplicate column reported full rank")
	}
	if _, err := u.Solve(make([]float64, m)); !errors.Is(err, ErrSingular) {
		t.Fatalf("want ErrSingular, got %v", err)
	}
}

func TestUpdQRZeroColumnMatchesDecomposeQR(t *testing.T) {
	// The textbook loop skips the reflector of an all-zero column
	// (nrm == 0) and records rdia = 0; appends after it must still
	// agree with the oracle.
	r := rng.New(13)
	m := 20
	x := New(m, 3)
	for i := 0; i < m; i++ {
		x.Set(i, 0, r.Norm())
		// Column 1 stays zero.
		x.Set(i, 2, r.Norm())
	}
	u := NewUpdQR(m, 3)
	appendAll(u, x)
	if !sameFactor(t, u, oracleDecompose(x)) {
		t.Fatal("factorization with a zero column differs from the oracle")
	}
	if u.rdia[1] != 0 {
		t.Fatalf("zero column rdia = %v, want 0", u.rdia[1])
	}
	if u.IsFullRank(1e-12) {
		t.Fatal("factorization with zero column reported full rank")
	}
}

func TestUpdQRCopyFromIndependence(t *testing.T) {
	// CopyFrom hands each selection worker its own prefix copy; appends
	// to the copy must not leak into the source and vice versa.
	r := rng.New(17)
	m, p := 30, 2
	prefix, b := randTall(r, m, p)
	src := NewUpdQR(m, p+1)
	appendAll(src, prefix)

	cp := NewUpdQR(m, p+1)
	cp.CopyFrom(src)
	if cp.Cols() != src.Cols() || cp.Rows() != src.Rows() {
		t.Fatalf("copy shape %dx%d, want %dx%d", cp.Rows(), cp.Cols(), src.Rows(), src.Cols())
	}

	extra := make([]float64, m)
	for i := range extra {
		extra[i] = r.Norm()
	}
	cp.AppendCol(extra)
	if src.Cols() != p {
		t.Fatal("append to the copy changed the source column count")
	}
	// The source must still solve its own (prefix-only) system exactly
	// as a fresh decomposition would.
	want, err := oracleDecompose(prefix).solve(b)
	if err != nil {
		t.Fatal(err)
	}
	got, err := src.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	for j := range want {
		if got[j] != want[j] {
			t.Fatal("source factorization corrupted by append to copy")
		}
	}
}

func TestUpdQRResetReuse(t *testing.T) {
	r := rng.New(23)
	m, n := 20, 3
	x1, b := randTall(r, m, n)
	x2, _ := randTall(r, m, n)

	u := NewUpdQR(m, n)
	appendAll(u, x1)
	u.Reset()
	if u.Cols() != 0 {
		t.Fatalf("Cols after Reset = %d", u.Cols())
	}
	appendAll(u, x2)

	want, err := oracleDecompose(x2).solve(b)
	if err != nil {
		t.Fatal(err)
	}
	got, err := u.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	for j := range want {
		if got[j] != want[j] {
			t.Fatal("factorization after Reset differs from fresh decomposition")
		}
	}
}

func TestUpdQRPanics(t *testing.T) {
	expectPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s must panic", name)
			}
		}()
		f()
	}
	expectPanic("NewUpdQR zero rows", func() { NewUpdQR(0, 1) })
	expectPanic("NewUpdQR zero cap", func() { NewUpdQR(3, 0) })

	u := NewUpdQR(3, 2)
	expectPanic("AppendCol wrong length", func() { u.AppendCol([]float64{1, 2}) })
	u.AppendCol([]float64{1, 2, 3})
	u.AppendCol([]float64{4, 5, 6})
	expectPanic("AppendCol beyond capacity", func() { u.AppendCol([]float64{7, 8, 9}) })
	expectPanic("Truncate beyond Cols", func() { u.Truncate(3) })
	expectPanic("Truncate negative", func() { u.Truncate(-1) })

	tall := NewUpdQR(2, 4)
	tall.AppendCol([]float64{1, 0})
	tall.AppendCol([]float64{0, 1})
	expectPanic("AppendCol underdetermined", func() { tall.AppendCol([]float64{1, 1}) })

	batch := NewUpdQR(3, 2)
	expectPanic("AppendCols row mismatch", func() { batch.AppendCols(New(2, 1)) })
	expectPanic("AppendCols beyond capacity", func() { batch.AppendCols(New(3, 3)) })
	expectPanic("AppendCols underdetermined", func() { NewUpdQR(2, 3).AppendCols(New(2, 3)) })
	if batch.Cols() != 0 {
		t.Fatalf("a refused AppendCols left %d columns", batch.Cols())
	}

	other := NewUpdQR(4, 2)
	expectPanic("CopyFrom row mismatch", func() { other.CopyFrom(u) })
	small := NewUpdQR(3, 1)
	expectPanic("CopyFrom capacity", func() { small.CopyFrom(u) })
}

func TestRowViewAliasesStorage(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	row := m.RowView(1)
	if row[0] != 3 || row[1] != 4 {
		t.Fatalf("RowView(1) = %v", row)
	}
	// The view aliases the matrix: writes through Set are visible.
	m.Set(1, 0, 9)
	if row[0] != 9 {
		t.Fatal("RowView does not alias matrix storage")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("RowView out of range must panic")
		}
	}()
	m.RowView(2)
}

func TestMulVecIntoMatchesMulVec(t *testing.T) {
	r := rng.New(29)
	x, _ := randTall(r, 15, 4)
	v := []float64{1.5, -2, 0.25, 3}
	want := x.MulVec(v)
	got := make([]float64, 15)
	x.MulVecInto(got, v)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("MulVecInto[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	allocs := testing.AllocsPerRun(100, func() { x.MulVecInto(got, v) })
	if allocs != 0 {
		t.Fatalf("MulVecInto allocated %v times per run, want 0", allocs)
	}
	expectPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s must panic", name)
			}
		}()
		f()
	}
	expectPanic("short dst", func() { x.MulVecInto(got[:3], v) })
	expectPanic("short x", func() { x.MulVecInto(got, v[:2]) })
}

func TestWeightedCrossMatchesExplicitForm(t *testing.T) {
	// WeightedCross(x, w) must reproduce Mul(xᵀ, diag(w)·x) — the
	// covariance meat formulation it replaces — bit for bit, including
	// with zero weights and zero entries (Mul skips av == 0 terms).
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 5 + int(seed%10)
		k := 2 + int(seed%3)
		x := New(n, k)
		w := make([]float64, n)
		for i := 0; i < n; i++ {
			for j := 0; j < k; j++ {
				v := r.NormScaled(0, 2)
				if r.Float64() < 0.1 {
					v = 0
				}
				x.Set(i, j, v)
			}
			w[i] = r.Float64()
			if r.Float64() < 0.1 {
				w[i] = 0
			}
		}
		want := Mul(x.T(), x.Clone().ScaleRows(w))
		got := WeightedCross(x, w)
		for i := 0; i < k; i++ {
			for j := 0; j < k; j++ {
				if got.At(i, j) != want.At(i, j) {
					t.Logf("(%d,%d): WeightedCross %v, explicit %v", i, j, got.At(i, j), want.At(i, j))
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
