// Package mat implements the dense linear algebra needed by the
// regression machinery in internal/stats: a row-major float64 matrix,
// one Householder QR decomposition (UpdQR, built column by column) with
// least-squares solving and the inverse of its triangular factor, and
// the row-updatable triangular factor RowQR for streaming refits.
//
// The package is deliberately small. It is not a general-purpose BLAS;
// it implements exactly the numerically careful primitives that
// ordinary-least-squares fitting with heteroscedasticity-consistent
// covariance estimation requires, using stdlib only.
package mat

import (
	"fmt"
	"strings"
)

// Matrix is a dense, row-major matrix of float64 values.
type Matrix struct {
	rows, cols int
	data       []float64 // len == rows*cols, row-major
}

// New returns a zero-initialized rows×cols matrix. It panics if either
// dimension is not positive.
func New(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("mat: invalid dimensions %dx%d", rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

func (m *Matrix) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: index (%d,%d) out of range for %dx%d matrix", i, j, m.rows, m.cols))
	}
}

// Col returns a copy of column j.
func (m *Matrix) Col(j int) []float64 {
	if j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: column %d out of range", j))
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		out[i] = m.data[i*m.cols+j]
	}
	return out
}

// Columns returns a copy of every column, in order: m as a column
// store.
func (m *Matrix) Columns() [][]float64 {
	cols := make([][]float64, m.cols)
	for j := range cols {
		cols[j] = m.Col(j)
	}
	return cols
}

// RowView returns row i as a slice aliasing the matrix storage — no
// copy. The caller must treat it as read-only; writes alias the
// matrix. It exists for allocation-free inner loops (the OLS leverage
// computation walks every design row once per fit).
func (m *Matrix) RowView(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("mat: row %d out of range", i))
	}
	return m.data[i*m.cols : (i+1)*m.cols]
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := New(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// T returns the transpose of m as a new matrix.
func (m *Matrix) T() *Matrix {
	t := New(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			t.data[j*t.cols+i] = m.data[i*m.cols+j]
		}
	}
	return t
}

// Mul returns the matrix product a*b. It panics on a dimension
// mismatch.
func Mul(a, b *Matrix) *Matrix {
	if a.cols != b.rows {
		panic(fmt.Sprintf("mat: Mul dimension mismatch %dx%d * %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	out := New(a.rows, b.cols)
	for i := 0; i < a.rows; i++ {
		arow := a.data[i*a.cols : (i+1)*a.cols]
		orow := out.data[i*out.cols : (i+1)*out.cols]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.data[k*b.cols : (k+1)*b.cols]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}

// MulVec returns the matrix-vector product m*x. It panics if len(x)
// differs from the column count.
func (m *Matrix) MulVec(x []float64) []float64 {
	if len(x) != m.cols {
		panic(fmt.Sprintf("mat: MulVec length mismatch: %d columns, vector of %d", m.cols, len(x)))
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return out
}

// MulVecInto is MulVec writing into a caller-provided slice of length
// Rows — the allocation-free variant for hot loops. The accumulation
// order matches MulVec exactly, so results are bit-identical.
func (m *Matrix) MulVecInto(dst, x []float64) {
	if len(x) != m.cols {
		panic(fmt.Sprintf("mat: MulVecInto length mismatch: %d columns, vector of %d", m.cols, len(x)))
	}
	if len(dst) != m.rows {
		panic(fmt.Sprintf("mat: MulVecInto destination length %d, want %d rows", len(dst), m.rows))
	}
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		dst[i] = s
	}
}

// WeightedCross computes Xᵀ·diag(w)·X for the n×k matrix x without
// materializing the scaled copy or the transpose. It reproduces the
// exact floating-point result of
//
//	Mul(x.T(), s)  where s is x with each row i scaled by w[i]
//
// — each output entry accumulates the terms x[i][j1]·(x[i][j2]·w[i])
// over rows i in ascending order with the same zero-skip Mul applies —
// so switching the HC covariance "meat" to it leaves fitted models
// bit-identical while saving two n×k temporaries per fit.
func WeightedCross(x *Matrix, w []float64) *Matrix {
	if len(w) != x.rows {
		panic("mat: WeightedCross weight length mismatch")
	}
	k := x.cols
	out := New(k, k)
	for j1 := 0; j1 < k; j1++ {
		orow := out.data[j1*k : (j1+1)*k]
		for i := 0; i < x.rows; i++ {
			av := x.data[i*x.cols+j1]
			if av == 0 {
				continue
			}
			xrow := x.data[i*x.cols : (i+1)*x.cols]
			wi := w[i]
			for j2, xv := range xrow {
				orow[j2] += av * (xv * wi)
			}
		}
	}
	return out
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	var sb strings.Builder
	for i := 0; i < m.rows; i++ {
		sb.WriteString("[")
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				sb.WriteString(" ")
			}
			fmt.Fprintf(&sb, "%.6g", m.At(i, j))
		}
		sb.WriteString("]\n")
	}
	return sb.String()
}
