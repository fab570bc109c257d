package mat

import (
	"fmt"
	"math"
)

// UpdQR is the package's Householder QR decomposition, built one
// column at a time. Every least-squares fit in the modelling pipeline
// factors through it: a batch fit appends its design's columns
// (AppendCols), and the selection hot path factors the columns a
// round's candidate designs share once, then appends the few
// per-candidate columns to a copy. Algorithm 1 refits the Equation-1
// model once per candidate per round, so the shared prefix turns each
// trial fit from O(n·k²) into O(n·k).
//
// Householder QR processes columns strictly left to right: the
// reflector of column j depends only on columns 0..j. Appending a
// column therefore applies the stored reflectors to it in order and
// then forms its own reflector — the per-column step of the textbook
// loop — so a factorization obtained by appends is bit-identical to a
// one-shot decomposition of the full matrix (the test suite pins it
// against a row-major textbook oracle), and Truncate can drop trailing
// columns in O(1) because an append never writes outside its own
// column.
//
// Storage is column-major (one contiguous slice per column position),
// which keeps appends and solves cache-friendly; the arithmetic does
// not depend on the layout.
//
// UpdQR is not safe for concurrent use; the selection path gives each
// worker its own copy of the shared prefix (see CopyFrom).
type UpdQR struct {
	m, n, capCols int
	// col[j*m : (j+1)*m] stores column j: R entries in rows < j, the
	// Householder vector in rows >= j (LAPACK-style compact storage).
	col  []float64
	rdia []float64 // diagonal of R, -nrm of each reflector
}

// NewUpdQR returns an empty updatable decomposition for matrices with
// m rows and capacity for up to capCols appended columns.
func NewUpdQR(m, capCols int) *UpdQR {
	if m <= 0 || capCols <= 0 {
		panic(fmt.Sprintf("mat: NewUpdQR invalid dimensions m=%d cap=%d", m, capCols))
	}
	return &UpdQR{
		m:       m,
		capCols: capCols,
		col:     make([]float64, m*capCols),
		rdia:    make([]float64, capCols),
	}
}

// Cap returns the column capacity.
func (u *UpdQR) Cap() int { return u.capCols }

// Reset drops every column, returning the decomposition to the empty
// state without releasing storage.
func (u *UpdQR) Reset() { u.n = 0 }

// Truncate drops trailing columns so that n remain. It is O(1):
// appending a column never modifies the storage of earlier columns,
// so the prefix factorization is still intact.
func (u *UpdQR) Truncate(n int) {
	if n < 0 || n > u.n {
		panic(fmt.Sprintf("mat: Truncate to %d columns, have %d", n, u.n))
	}
	u.n = n
}

// CopyFrom makes u an exact copy of src's current factorization. The
// row counts must match and u's capacity must hold src's columns; u's
// capacity is unchanged. Used to hand each selection worker its own
// copy of the shared per-round prefix.
func (u *UpdQR) CopyFrom(src *UpdQR) {
	if u.m != src.m {
		panic(fmt.Sprintf("mat: CopyFrom row mismatch %d vs %d", u.m, src.m))
	}
	if src.n > u.capCols {
		panic(fmt.Sprintf("mat: CopyFrom needs capacity %d, have %d", src.n, u.capCols))
	}
	u.n = src.n
	copy(u.col[:src.n*u.m], src.col[:src.n*src.m])
	copy(u.rdia[:src.n], src.rdia[:src.n])
}

// AppendCol appends one column to the factorization: the stored
// reflectors are applied to it in order, then its own reflector is
// formed. Appending must leave at least one more row than column for
// the decomposition to stay overdetermined; that invariant is the
// caller's (checked in Solve via the rank test, and by construction in
// the selection path).
func (u *UpdQR) AppendCol(c []float64) {
	if len(c) != u.m {
		panic(fmt.Sprintf("mat: AppendCol length %d, want %d rows", len(c), u.m))
	}
	u.checkAppend(1)
	copy(u.col[u.n*u.m:(u.n+1)*u.m], c)
	u.factorNext()
}

// AppendCols appends every column of a, left to right. The columns are
// copied straight from a's row-major storage into the column store, so
// a batch factorization is NewUpdQR(m, k) followed by one AppendCols,
// with no column slices or transpose in between.
func (u *UpdQR) AppendCols(a *Matrix) {
	if a.rows != u.m {
		panic(fmt.Sprintf("mat: AppendCols of a %dx%d matrix, want %d rows", a.rows, a.cols, u.m))
	}
	u.checkAppend(a.cols)
	for j := 0; j < a.cols; j++ {
		dst := u.col[u.n*u.m : (u.n+1)*u.m]
		for i, idx := 0, j; i < u.m; i, idx = i+1, idx+a.cols {
			dst[i] = a.data[idx]
		}
		u.factorNext()
	}
}

// checkAppend panics unless cols more columns fit the capacity and
// leave the system no wider than it is tall.
func (u *UpdQR) checkAppend(cols int) {
	if u.n+cols > u.capCols {
		panic(fmt.Sprintf("mat: appending %d columns to %d exceeds capacity %d", cols, u.n, u.capCols))
	}
	if u.n+cols > u.m {
		panic(fmt.Sprintf("mat: appending %d columns would make a %dx%d underdetermined system", cols, u.m, u.n+cols))
	}
}

// factorNext factors column n, which the caller has already copied
// into the column store, and advances n: the per-column step of
// Householder QR.
func (u *UpdQR) factorNext() {
	m, j := u.m, u.n
	dst := u.col[j*m : (j+1)*m]

	// Apply the existing reflectors in order, skipping the reflector
	// of a zero column (nrm == 0, i.e. rdia == 0): it was never formed.
	for k := 0; k < j; k++ {
		if u.rdia[k] == 0 {
			continue
		}
		ck := u.col[k*m : (k+1)*m]
		var s float64
		for i := k; i < m; i++ {
			s += ck[i] * dst[i]
		}
		s = -s / ck[k]
		for i := k; i < m; i++ {
			dst[i] += s * ck[i]
		}
	}

	// Form the new reflector: the 2-norm below the diagonal by scaled
	// Hypot (no overflow), its sign chosen to avoid cancellation.
	var nrm float64
	for i := j; i < m; i++ {
		nrm = math.Hypot(nrm, dst[i])
	}
	if nrm != 0 {
		if dst[j] < 0 {
			nrm = -nrm
		}
		for i := j; i < m; i++ {
			dst[i] /= nrm
		}
		dst[j]++
	}
	u.rdia[j] = -nrm
	u.n = j + 1
}

// IsFullRank reports whether all diagonal entries of R are comfortably
// above zero relative to the largest one, using tolerance tol (a
// relative threshold; 1e-12 is the solves' criterion).
func (u *UpdQR) IsFullRank(tol float64) bool {
	var maxd float64
	for _, v := range u.rdia[:u.n] {
		if a := math.Abs(v); a > maxd {
			maxd = a
		}
	}
	if maxd == 0 {
		return false
	}
	for _, v := range u.rdia[:u.n] {
		if math.Abs(v) <= tol*maxd {
			return false
		}
	}
	return true
}

// SolveInto finds x minimizing ‖Ax − b‖₂ for the currently factored A,
// writing the solution into x (length Cols) and using ybuf (length
// Rows) as scratch — no allocation. b is not modified. It returns
// ErrSingular when A is rank-deficient at a relative tolerance of
// 1e-12.
func (u *UpdQR) SolveInto(x, ybuf, b []float64) error {
	if len(b) != u.m {
		return fmt.Errorf("mat: SolveInto length mismatch: matrix has %d rows, b has %d", u.m, len(b))
	}
	if len(x) != u.n {
		return fmt.Errorf("mat: SolveInto solution length %d, want %d", len(x), u.n)
	}
	if len(ybuf) != u.m {
		return fmt.Errorf("mat: SolveInto scratch length %d, want %d", len(ybuf), u.m)
	}
	if !u.IsFullRank(1e-12) {
		return ErrSingular
	}
	m := u.m
	copy(ybuf, b)

	// y = Qᵀ b, applying the stored reflectors in order.
	for k := 0; k < u.n; k++ {
		ck := u.col[k*m : (k+1)*m]
		var s float64
		for i := k; i < m; i++ {
			s += ck[i] * ybuf[i]
		}
		s = -s / ck[k]
		for i := k; i < m; i++ {
			ybuf[i] += s * ck[i]
		}
	}

	// Back substitution: R x = y[:n]. R's strict upper triangle lives
	// in rows < j of column j (R[k][j] = col[j*m+k] for k < j).
	for k := u.n - 1; k >= 0; k-- {
		s := ybuf[k]
		for j := k + 1; j < u.n; j++ {
			s -= u.col[j*m+k] * x[j]
		}
		x[k] = s / u.rdia[k]
	}
	return nil
}

// Solve is SolveInto with freshly allocated solution and scratch.
func (u *UpdQR) Solve(b []float64) ([]float64, error) {
	x := make([]float64, u.n)
	ybuf := make([]float64, u.m)
	if err := u.SolveInto(x, ybuf, b); err != nil {
		return nil, err
	}
	return x, nil
}

// RInverse returns R⁻¹ for the Cols×Cols upper-triangular factor.
// Together with (XᵀX)⁻¹ = R⁻¹·R⁻ᵀ this gives the OLS covariance bread
// matrix without forming XᵀX. It returns ErrSingular under the solves'
// rank test.
func (u *UpdQR) RInverse() (*Matrix, error) {
	if !u.IsFullRank(1e-12) {
		return nil, ErrSingular
	}
	n, m := u.n, u.m
	inv := New(n, n)
	// Solve R * col_j = e_j by back substitution for each j. R's strict
	// upper triangle lives in rows < l of column l: R[k][l] = col[l*m+k].
	for j := 0; j < n; j++ {
		for k := n - 1; k >= 0; k-- {
			var s float64
			if k == j {
				s = 1
			}
			for l := k + 1; l < n; l++ {
				s -= u.col[l*m+k] * inv.At(l, j)
			}
			inv.Set(k, j, s/u.rdia[k])
		}
	}
	return inv, nil
}
