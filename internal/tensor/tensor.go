// Package tensor implements the dense float64 matrix math the real training
// runtime (package train) executes. All GEMM variants (plain, aᵀ@b, a@bᵀ,
// and their into/fused-accumulate forms) and all sizes route through one
// tiled core (block.go) around one micro-kernel — AVX2 assembly on amd64
// hosts that have it, portable Go elsewhere — that fans large products out
// over a persistent shared worker pool (parallel.go). Work is partitioned by
// disjoint output tiles with a fixed k-accumulation order, so results are
// bit-identical for any worker count and either kernel — the repo's
// determinism tests depend on that.
//
// float64 is deliberate: the runtime's purpose is to prove schedule
// equivalence (DAPPLE's pipelined gradients match sequential execution), and
// wide accumulators keep reordering noise far below the assertion tolerance.
package tensor

import (
	"fmt"
	"math/rand"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// New returns a zero matrix of the given shape.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromSlice wraps data (not copied) as a rows x cols matrix.
func FromSlice(rows, cols int, data []float64) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: %d values for %dx%d matrix", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a slice view.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Zero clears all elements in place.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// CopyFrom copies src's contents; shapes must match.
func (m *Matrix) CopyFrom(src *Matrix) {
	m.mustSameShape(src)
	copy(m.Data, src.Data)
}

// RowSlice returns rows [lo, hi) as a view sharing storage.
func (m *Matrix) RowSlice(lo, hi int) *Matrix {
	if lo < 0 || hi > m.Rows || lo > hi {
		panic(fmt.Sprintf("tensor: row slice [%d,%d) of %d rows", lo, hi, m.Rows))
	}
	return &Matrix{Rows: hi - lo, Cols: m.Cols, Data: m.Data[lo*m.Cols : hi*m.Cols]}
}

// ConcatRows stacks the given matrices vertically into a new matrix.
func ConcatRows(parts ...*Matrix) *Matrix {
	if len(parts) == 0 {
		return New(0, 0)
	}
	cols := parts[0].Cols
	rows := 0
	for _, p := range parts {
		if p.Cols != cols {
			panic(fmt.Sprintf("tensor: concat cols %d vs %d", p.Cols, cols))
		}
		rows += p.Rows
	}
	out := New(rows, cols)
	at := 0
	for _, p := range parts {
		copy(out.Data[at:], p.Data)
		at += len(p.Data)
	}
	return out
}

// SplitRows partitions m into n near-equal row blocks (first blocks one row
// larger when rows do not divide evenly). Blocks are views.
func (m *Matrix) SplitRows(n int) []*Matrix {
	if n <= 0 {
		panic("tensor: split into non-positive parts")
	}
	out := make([]*Matrix, 0, n)
	base, extra := m.Rows/n, m.Rows%n
	lo := 0
	for i := 0; i < n; i++ {
		sz := base
		if i < extra {
			sz++
		}
		out = append(out, m.RowSlice(lo, lo+sz))
		lo += sz
	}
	return out
}

func (m *Matrix) mustSameShape(o *Matrix) {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		panic(fmt.Sprintf("tensor: shape %dx%d vs %dx%d", m.Rows, m.Cols, o.Rows, o.Cols))
	}
}

// Add accumulates o into m element-wise via the shared vector-sum kernel
// (pool-parallel for large matrices, bit-identical for any worker count).
func (m *Matrix) Add(o *Matrix) {
	m.mustSameShape(o)
	VecAddInto(m.Data, o.Data)
}

// AXPY accumulates a*o into m via the shared axpy kernel (fused
// multiply-add on FMA-enabled builds, pool-parallel for large matrices).
func (m *Matrix) AXPY(a float64, o *Matrix) {
	m.mustSameShape(o)
	AxpyInto(m.Data, a, o.Data)
}

// Scale multiplies every element by a.
func (m *Matrix) Scale(a float64) {
	for i := range m.Data {
		m.Data[i] *= a
	}
}

// AddRowVec adds vector v (len Cols) to every row.
func (m *Matrix) AddRowVec(v []float64) {
	if len(v) != m.Cols {
		panic(fmt.Sprintf("tensor: row vec %d for %d cols", len(v), m.Cols))
	}
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		for j, x := range v {
			row[j] += x
		}
	}
}

// SumRows returns the column-wise sums of m as a length-Cols slice.
func (m *Matrix) SumRows() []float64 {
	out := make([]float64, m.Cols)
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		for j, x := range row {
			out[j] += x
		}
	}
	return out
}

// Randomize fills m with uniform values in [-scale, scale] from rng.
func (m *Matrix) Randomize(rng *rand.Rand, scale float64) {
	for i := range m.Data {
		m.Data[i] = (rng.Float64()*2 - 1) * scale
	}
}

// MatMul returns a @ b.
func MatMul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: matmul %dx%d @ %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := New(a.Rows, b.Cols)
	gemm(gemmNN, out, a, b, false, nil, nil)
	return out
}

// MatMulATB returns aᵀ @ b (used for weight gradients).
func MatMulATB(a, b *Matrix) *Matrix {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: matmulATB %dx%d, %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := New(a.Cols, b.Cols)
	gemm(gemmTN, out, a, b, false, nil, nil)
	return out
}

// MatMulABT returns a @ bᵀ (used for input gradients).
func MatMulABT(a, b *Matrix) *Matrix {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: matmulABT %dx%d, %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := New(a.Rows, b.Rows)
	gemm(gemmNT, out, a, b, false, nil, nil)
	return out
}

// MaxAbsDiff returns the largest absolute element-wise difference.
func MaxAbsDiff(a, b *Matrix) float64 {
	a.mustSameShape(b)
	var m float64
	for i := range a.Data {
		d := a.Data[i] - b.Data[i]
		if d < 0 {
			d = -d
		}
		if d > m {
			m = d
		}
	}
	return m
}
