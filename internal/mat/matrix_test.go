package mat

import (
	"math"
	"testing"
	"testing/quick"

	"pmcpower/internal/rng"
)

func TestNewAndAccessors(t *testing.T) {
	m := New(2, 3)
	if m.Rows() != 2 || m.Cols() != 3 {
		t.Fatalf("got %dx%d, want 2x3", m.Rows(), m.Cols())
	}
	m.Set(1, 2, 5)
	if m.At(1, 2) != 5 {
		t.Fatalf("At(1,2) = %v, want 5", m.At(1, 2))
	}
	if m.At(0, 0) != 0 {
		t.Fatal("fresh matrix must be zero-initialized")
	}
}

func TestNewPanicsOnBadDims(t *testing.T) {
	for _, dims := range [][2]int{{0, 1}, {1, 0}, {-1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("New(%d,%d) must panic", dims[0], dims[1])
				}
			}()
			New(dims[0], dims[1])
		}()
	}
}

func TestFromRowsAndColumns(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	b := FromColumns([][]float64{{1, 3, 5}, {2, 4, 6}})
	if !Equal(a, b, 0) {
		t.Fatalf("FromRows and FromColumns disagree:\n%v\n%v", a, b)
	}
}

func TestFromRowsPanicsOnRagged(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ragged FromRows must panic")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestRowColClone(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	r := m.Row(1)
	if r[0] != 4 || r[2] != 6 {
		t.Fatalf("Row(1) = %v", r)
	}
	c := m.Col(2)
	if c[0] != 3 || c[1] != 6 {
		t.Fatalf("Col(2) = %v", c)
	}
	if cols := m.Columns(); len(cols) != 3 || cols[0][1] != 4 || cols[2][0] != 3 {
		t.Fatalf("Columns() = %v", cols)
	}
	// Mutating copies must not affect the original.
	r[0] = 99
	c[0] = 99
	if m.At(1, 0) != 4 || m.At(0, 2) != 3 {
		t.Fatal("Row/Col must return copies")
	}
	cl := m.Clone()
	cl.Set(0, 0, 42)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone must be deep")
	}
}

func TestTranspose(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	mt := m.T()
	if mt.Rows() != 3 || mt.Cols() != 2 {
		t.Fatalf("transpose shape %dx%d", mt.Rows(), mt.Cols())
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if m.At(i, j) != mt.At(j, i) {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
	if !Equal(m, m.T().T(), 0) {
		t.Fatal("double transpose must be identity")
	}
}

func TestMul(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	got := Mul(a, b)
	want := FromRows([][]float64{{19, 22}, {43, 50}})
	if !Equal(got, want, 1e-12) {
		t.Fatalf("Mul wrong:\n%v", got)
	}
}

func TestMulIdentity(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	if !Equal(Mul(a, Identity(3)), a, 1e-12) {
		t.Fatal("A*I != A")
	}
	if !Equal(Mul(Identity(2), a), a, 1e-12) {
		t.Fatal("I*A != A")
	}
}

func TestMulDimensionPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("dimension mismatch must panic")
		}
	}()
	Mul(New(2, 3), New(2, 3))
}

func TestMulVec(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	got := a.MulVec([]float64{1, -1})
	want := []float64{-1, -1, -1}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("MulVec = %v, want %v", got, want)
		}
	}
}

func TestScaleRows(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	a.ScaleRows([]float64{2, 10})
	want := FromRows([][]float64{{2, 4}, {30, 40}})
	if !Equal(a, want, 0) {
		t.Fatalf("ScaleRows wrong:\n%v", a)
	}
}

func TestMulAssociativityProperty(t *testing.T) {
	// (AB)C == A(BC) for random small matrices, up to round-off.
	r := rng.New(4)
	randMat := func(rows, cols int) *Matrix {
		m := New(rows, cols)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				m.Set(i, j, r.NormScaled(0, 3))
			}
		}
		return m
	}
	for trial := 0; trial < 25; trial++ {
		a := randMat(4, 3)
		b := randMat(3, 5)
		c := randMat(5, 2)
		left := Mul(Mul(a, b), c)
		right := Mul(a, Mul(b, c))
		if !Equal(left, right, 1e-9) {
			t.Fatalf("associativity violated at trial %d", trial)
		}
	}
}

func TestTransposeOfProductProperty(t *testing.T) {
	// (AB)ᵀ == Bᵀ Aᵀ — quick-check over deterministic seeds.
	f := func(seed uint64) bool {
		r := rng.New(seed)
		a := New(3, 4)
		b := New(4, 2)
		for i := 0; i < 3; i++ {
			for j := 0; j < 4; j++ {
				a.Set(i, j, r.Norm())
			}
		}
		for i := 0; i < 4; i++ {
			for j := 0; j < 2; j++ {
				b.Set(i, j, r.Norm())
			}
		}
		return Equal(Mul(a, b).T(), Mul(b.T(), a.T()), 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestMaxAbs(t *testing.T) {
	m := FromRows([][]float64{{1, -7}, {3, 2}})
	if m.MaxAbs() != 7 {
		t.Fatalf("MaxAbs = %v, want 7", m.MaxAbs())
	}
}

func TestEqualShapeMismatch(t *testing.T) {
	if Equal(New(2, 2), New(2, 3), 1) {
		t.Fatal("different shapes must not be Equal")
	}
}

func TestStringDoesNotPanic(t *testing.T) {
	_ = FromRows([][]float64{{1.5, 2}, {3, 4}}).String()
}
