package mat

import (
	"fmt"
	"math"
)

// Constructors, accessors and comparisons only the tests use.

// FromColumns builds a matrix whose j-th column is cols[j]. All columns
// must have equal, non-zero length.
func FromColumns(cols [][]float64) *Matrix {
	if len(cols) == 0 || len(cols[0]) == 0 {
		panic("mat: FromColumns requires a non-empty rectangular input")
	}
	m := New(len(cols[0]), len(cols))
	for j, c := range cols {
		if len(c) != m.rows {
			panic(fmt.Sprintf("mat: ragged column %d: got %d values, want %d", j, len(c), m.rows))
		}
		for i, v := range c {
			m.Set(i, j, v)
		}
	}
	return m
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// MaxAbs returns the largest absolute value in the matrix.
func (m *Matrix) MaxAbs() float64 {
	var mx float64
	for _, v := range m.data {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// Equal reports whether two matrices have the same shape and all
// entries within tol of each other.
func Equal(a, b *Matrix, tol float64) bool {
	if a.rows != b.rows || a.cols != b.cols {
		return false
	}
	for i := range a.data {
		if math.Abs(a.data[i]-b.data[i]) > tol {
			return false
		}
	}
	return true
}

// FromRows builds a matrix from a slice of equally long rows. It panics
// on an empty input or ragged rows.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 || len(rows[0]) == 0 {
		panic("mat: FromRows requires a non-empty rectangular input")
	}
	m := New(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.cols {
			panic(fmt.Sprintf("mat: ragged row %d: got %d values, want %d", i, len(r), m.cols))
		}
		copy(m.data[i*m.cols:(i+1)*m.cols], r)
	}
	return m
}

// Row returns a copy of row i.
func (m *Matrix) Row(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("mat: row %d out of range", i))
	}
	out := make([]float64, m.cols)
	copy(out, m.data[i*m.cols:(i+1)*m.cols])
	return out
}

// ScaleRows multiplies each row i of m by w[i] in place and returns m:
// the reference product WeightedCross reproduces.
func (m *Matrix) ScaleRows(w []float64) *Matrix {
	if len(w) != m.rows {
		panic("mat: ScaleRows weight length mismatch")
	}
	for i, wi := range w {
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j := range row {
			row[j] *= wi
		}
	}
	return m
}

// Rows returns the row count of the decomposed matrix.
func (u *UpdQR) Rows() int { return u.m }

// Cols returns the number of columns currently factored.
func (u *UpdQR) Cols() int { return u.n }

// Solve is SolveInto with a freshly allocated coefficient slice.
func (q *RowQR) Solve() ([]float64, error) {
	coef := make([]float64, q.k)
	if err := q.SolveInto(coef); err != nil {
		return nil, err
	}
	return coef, nil
}
