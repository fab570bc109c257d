package mat

import (
	"errors"
	"math"
)

// ErrDowndate is returned by RowQR.DowndateRow when removing the row
// would destroy positive definiteness of the implied normal equations
// — numerically, when a hyperbolic rotation would need |s| ≥ 1. After
// this error the factorization state is unspecified; callers must
// Reset and rebuild from their retained rows (a refitting
// core.StreamSession does exactly that from its window ring).
var ErrDowndate = errors.New("mat: row downdate breakdown")

// RowQR maintains the triangular factor of a least-squares problem
// under row arrival and row removal — the transpose-shaped sibling of
// UpdQR's column append. It holds the k×k upper triangle R and the
// rotated target z satisfying
//
//	RᵀR = XᵀX    and    Rᵀz = Xᵀy
//
// for the rows (x, y) currently folded in, so R is (up to column
// signs) the triangle a Householder QR of the same rows would produce
// and back-substitution R·β = z yields the least-squares coefficients.
// Q itself is never formed: a row append is one sweep of Givens
// rotations against R (O(k²), no allocation), and a row removal is the
// mirrored sweep of hyperbolic rotations. That makes the per-sample
// cost independent of how many rows have ever been seen — the property
// a refitting core.StreamSession needs on the live telemetry path.
//
// UpdQR's factorization is the same bits whether its columns arrive
// one at a time or all at once, but Givens and Householder orderings
// differ, so RowQR matches a batch UpdQR refit only to rounding (see
// the equivalence tests for the documented tolerance). What IS exact:
// replaying the same rows through a fresh RowQR reproduces the state
// bit for bit.
type RowQR struct {
	k int
	// r is the k×k upper triangle, row-major: r[i*k+j] for i ≤ j. The
	// strict lower triangle is never touched.
	r []float64
	// z is the rotated target (the leading k entries of Qᵀy).
	z []float64
	// xbuf holds the working copy of the row being rotated in or out.
	xbuf []float64
}

// NewRowQR returns an empty factorization for rows of k features.
func NewRowQR(k int) *RowQR {
	if k <= 0 {
		panic("mat: RowQR needs at least one column")
	}
	return &RowQR{
		k:    k,
		r:    make([]float64, k*k),
		z:    make([]float64, k),
		xbuf: make([]float64, k),
	}
}

// Reset empties the factorization without releasing its buffers.
func (q *RowQR) Reset() {
	for i := range q.r {
		q.r[i] = 0
	}
	for i := range q.z {
		q.z[i] = 0
	}
}

// AppendRow folds one observation (x, y) into the factorization with
// a sweep of Givens rotations: for each column j the rotation that
// zeroes the row's j-th entry against R's diagonal is applied to the
// trailing entries of both. O(k²), no allocation; x is not modified.
func (q *RowQR) AppendRow(x []float64, y float64) {
	if len(x) != q.k {
		panic("mat: RowQR.AppendRow row length mismatch")
	}
	k := q.k
	copy(q.xbuf, x)
	t := y
	for j := 0; j < k; j++ {
		xj := q.xbuf[j]
		if xj == 0 {
			continue
		}
		rjj := q.r[j*k+j]
		rho := math.Hypot(rjj, xj)
		c := rjj / rho
		s := xj / rho
		q.r[j*k+j] = rho
		for l := j + 1; l < k; l++ {
			rjl := q.r[j*k+l]
			xl := q.xbuf[l]
			q.r[j*k+l] = c*rjl + s*xl
			q.xbuf[l] = c*xl - s*rjl
		}
		zj := q.z[j]
		q.z[j] = c*zj + s*t
		t = c*t - s*zj
	}
}

// DowndateRow removes one previously appended observation (x, y) with
// the hyperbolic mirror of AppendRow's sweep. Removing a row that was
// never appended (or re-removing one) silently corrupts the implied
// row set — the factorization cannot detect it; row membership is the
// caller's bookkeeping.
//
// Returns ErrDowndate when a rotation breaks down (the row's remaining
// mass reaches R's diagonal, so RᵀR − xxᵀ is no longer positive
// definite — in exact arithmetic impossible for a genuine member row,
// in floating point rare but real after long slides). On error the
// state is unspecified: Reset and rebuild.
func (q *RowQR) DowndateRow(x []float64, y float64) error {
	if len(x) != q.k {
		panic("mat: RowQR.DowndateRow row length mismatch")
	}
	k := q.k
	copy(q.xbuf, x)
	t := y
	for j := 0; j < k; j++ {
		xj := q.xbuf[j]
		if xj == 0 {
			continue
		}
		rjj := q.r[j*k+j]
		if math.Abs(xj) >= math.Abs(rjj) {
			return ErrDowndate
		}
		// d = sqrt(rjj² − xj²) in the cancellation-free product form.
		d := math.Sqrt((rjj - xj) * (rjj + xj))
		c := d / rjj
		s := xj / rjj
		q.r[j*k+j] = d
		for l := j + 1; l < k; l++ {
			rjl := (q.r[j*k+l] - s*q.xbuf[l]) / c
			q.r[j*k+l] = rjl
			q.xbuf[l] = c*q.xbuf[l] - s*rjl
		}
		zj := (q.z[j] - s*t) / c
		q.z[j] = zj
		t = c*t - s*zj
	}
	return nil
}

// IsFullRank reports whether all diagonal entries of R are comfortably
// nonzero: |r_jj| > tol · max_j |r_jj|, the same relative test UpdQR
// uses.
func (q *RowQR) IsFullRank(tol float64) bool {
	k := q.k
	var maxd float64
	for j := 0; j < k; j++ {
		if d := math.Abs(q.r[j*k+j]); d > maxd {
			maxd = d
		}
	}
	if maxd == 0 {
		return false
	}
	for j := 0; j < k; j++ {
		if math.Abs(q.r[j*k+j]) <= tol*maxd {
			return false
		}
	}
	return true
}

// SolveInto back-substitutes R·coef = z into coef (length k), the
// least-squares coefficients of the current row set. No allocation.
// Returns ErrSingular under the same relative 1e-12 rank tolerance as
// UpdQR.Solve — in particular whenever fewer than k rows are folded in.
func (q *RowQR) SolveInto(coef []float64) error {
	if len(coef) != q.k {
		panic("mat: RowQR.SolveInto coefficient length mismatch")
	}
	if !q.IsFullRank(1e-12) {
		return ErrSingular
	}
	k := q.k
	for i := k - 1; i >= 0; i-- {
		s := q.z[i]
		for j := i + 1; j < k; j++ {
			s -= q.r[i*k+j] * coef[j]
		}
		coef[i] = s / q.r[i*k+i]
	}
	return nil
}
