package mat

import (
	"fmt"
	"math"
)

// Constructors and comparisons only the tests use.

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
