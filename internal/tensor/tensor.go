// Package tensor implements the dense float64 matrix math the real training
// runtime (package train) executes. All GEMM variants (a@b, aᵀ@b, a@bᵀ,
// with their fused accumulate, bias and ReLU epilogues) and all sizes route
// through one tiled core (block.go) around one micro-kernel — AVX2 assembly
// on amd64 hosts that have it, portable Go elsewhere — that fans large
// products out over a persistent shared worker pool (parallel.go). Work is
// partitioned by disjoint output tiles with a fixed k-accumulation order, so
// results are bit-identical for any worker count and either kernel — the
// repo's determinism tests depend on that.
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

// RowSlice returns rows [lo, hi) as a view sharing storage.
func (m *Matrix) RowSlice(lo, hi int) *Matrix {
	if lo < 0 || hi > m.Rows || lo > hi {
		panic(fmt.Sprintf("tensor: row slice [%d,%d) of %d rows", lo, hi, m.Rows))
	}
	return &Matrix{Rows: hi - lo, Cols: m.Cols, Data: m.Data[lo*m.Cols : hi*m.Cols]}
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
