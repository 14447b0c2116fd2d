package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestNewShape(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("got %dx%d len %d", m.Rows, m.Cols, len(m.Data))
	}
}

func TestAtSetRow(t *testing.T) {
	m := New(2, 3)
	m.Set(1, 2, 7)
	if m.At(1, 2) != 7 {
		t.Fatalf("At(1,2) = %v", m.At(1, 2))
	}
	row := m.Row(1)
	if row[2] != 7 {
		t.Fatalf("Row(1)[2] = %v", row[2])
	}
	row[0] = 5 // views share storage
	if m.At(1, 0) != 5 {
		t.Fatalf("row view not shared")
	}
}

func TestFromSliceValidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on bad length")
		}
	}()
	FromSlice(2, 2, []float64{1, 2, 3})
}

func TestCloneIndependent(t *testing.T) {
	m := FromSlice(1, 2, []float64{1, 2})
	c := m.Clone()
	c.Data[0] = 99
	if m.Data[0] != 1 {
		t.Fatal("clone shares storage")
	}
}

func TestMatMulSmall(t *testing.T) {
	a := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := FromSlice(3, 2, []float64{7, 8, 9, 10, 11, 12})
	c := MatMul(a, b)
	want := []float64{58, 64, 139, 154}
	for i, w := range want {
		if !almostEq(c.Data[i], w) {
			t.Fatalf("c[%d] = %v, want %v", i, c.Data[i], w)
		}
	}
}

func TestMatMulShapePanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected shape panic")
		}
	}()
	MatMul(New(2, 3), New(2, 3))
}

// TestMatMulParallelMatchesSerial checks the banded parallel path against a
// naive triple loop on shapes above the parallel threshold.
func TestMatMulParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := New(97, 83)
	b := New(83, 71)
	a.Randomize(rng, 1)
	b.Randomize(rng, 1)
	got := MatMul(a, b)
	want := New(97, 71)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			want.Set(i, j, s)
		}
	}
	if d := MaxAbsDiff(got, want); d > 1e-9 {
		t.Fatalf("parallel matmul differs by %g", d)
	}
}

// transpose returns mᵀ as a new matrix.
func transpose(m *Matrix) *Matrix {
	t := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// TestMatMulATB checks the weight-gradient kernel against MatMul of an
// explicit transpose, accumulating into a zeroed destination.
func TestMatMulATB(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := New(13, 7)
	b := New(13, 5)
	a.Randomize(rng, 1)
	b.Randomize(rng, 1)
	got := New(7, 5)
	MatMulATBAddInto(got, a, b)
	if d := MaxAbsDiff(got, MatMul(transpose(a), b)); d > 1e-9 {
		t.Fatalf("ATB differs by %g", d)
	}
}

// TestMatMulABT checks the input-gradient kernel against MatMul of an
// explicit transpose.
func TestMatMulABT(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := New(9, 6)
	b := New(11, 6)
	a.Randomize(rng, 1)
	b.Randomize(rng, 1)
	got := New(9, 11)
	MatMulABTInto(got, a, b)
	if d := MaxAbsDiff(got, MatMul(a, transpose(b))); d > 1e-9 {
		t.Fatalf("ABT differs by %g", d)
	}
}

func TestAddAXPYScale(t *testing.T) {
	m := FromSlice(1, 3, []float64{1, 2, 3})
	o := FromSlice(1, 3, []float64{10, 20, 30})
	m.Add(o)
	if m.Data[1] != 22 {
		t.Fatalf("Add: %v", m.Data)
	}
	m.AXPY(0.5, o)
	if m.Data[2] != 33+15 {
		t.Fatalf("AXPY: %v", m.Data)
	}
	m.Scale(2)
	if m.Data[0] != 2*(1+10+5) {
		t.Fatalf("Scale: %v", m.Data)
	}
}

// TestAddRowVecSumRows checks the Dense layer's two bias kernels on hand
// values: the bias epilogue adds the row vector to every row (through an
// identity weight), and SumRowsInto accumulates column sums onto dst.
func TestAddRowVecSumRows(t *testing.T) {
	m := FromSlice(2, 2, []float64{1, 2, 3, 4})
	got := New(2, 2)
	MatMulAddRowVecInto(got, m, FromSlice(2, 2, []float64{1, 0, 0, 1}), []float64{10, 20})
	want := []float64{11, 22, 13, 24}
	for i, w := range want {
		if got.Data[i] != w {
			t.Fatalf("bias epilogue: %v", got.Data)
		}
	}
	s := []float64{100, 200}
	SumRowsInto(s, got)
	if s[0] != 124 || s[1] != 246 {
		t.Fatalf("SumRowsInto: %v", s)
	}
}

// Property: (a@b)@c == a@(b@c) within float tolerance.
func TestMatMulAssociativityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b, c := New(5, 4), New(4, 6), New(6, 3)
		a.Randomize(rng, 1)
		b.Randomize(rng, 1)
		c.Randomize(rng, 1)
		left := MatMul(MatMul(a, b), c)
		right := MatMul(a, MatMul(b, c))
		return MaxAbsDiff(left, right) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRowSliceBounds(t *testing.T) {
	m := New(4, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.RowSlice(2, 6)
}

func TestMaxAbsDiff(t *testing.T) {
	a := FromSlice(1, 3, []float64{1, 5, -2})
	b := FromSlice(1, 3, []float64{1, 2, -4})
	if d := MaxAbsDiff(a, b); d != 3 {
		t.Fatalf("MaxAbsDiff = %v", d)
	}
}
