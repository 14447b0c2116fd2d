package tensor

import "fmt"

// This file holds the allocation-free "into" kernel variants the steady-state
// training runtime executes: every kernel writes into a caller-provided
// destination (typically leased from a Pool), so a warm training iteration
// performs zero heap allocations in its compute hot path.

// MatMulInto computes out = a @ b into the preallocated out, overwriting its
// contents. Shapes must satisfy out = (a.Rows x b.Cols), a.Cols = b.Rows.
func MatMulInto(out, a, b *Matrix) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: matmul %dx%d @ %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if out.Rows != a.Rows || out.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: matmul out %dx%d for %dx%d result", out.Rows, out.Cols, a.Rows, b.Cols))
	}
	gemm(gemmNN, out, a, b, false, nil, nil)
}

// MatMulATBAddInto accumulates out += aᵀ @ b — the weight-gradient kernel
// fused with gradient accumulation. Shapes: out = (a.Cols x b.Cols),
// a.Rows = b.Rows.
func MatMulATBAddInto(out, a, b *Matrix) {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: matmulATB %dx%d, %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if out.Rows != a.Cols || out.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: matmulATB out %dx%d for %dx%d result", out.Rows, out.Cols, a.Cols, b.Cols))
	}
	gemm(gemmTN, out, a, b, true, nil, nil)
}

// MatMulABTInto computes out = a @ bᵀ into the preallocated out, overwriting
// its contents — the input-gradient kernel. Shapes: out = (a.Rows x b.Rows),
// a.Cols = b.Cols.
func MatMulABTInto(out, a, b *Matrix) {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: matmulABT %dx%d, %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if out.Rows != a.Rows || out.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: matmulABT out %dx%d for %dx%d result", out.Rows, out.Cols, a.Rows, b.Rows))
	}
	gemm(gemmNT, out, a, b, false, nil, nil)
}

// MatMulAddRowVecInto computes out = a @ b with bias (len b.Cols) added to
// every row, fused into the kernel's output pass — the Dense-forward kernel.
// The bias add happens once per element after its full k accumulation, so
// the result is bit-identical to a matmul followed by a separate bias pass.
func MatMulAddRowVecInto(out, a, b *Matrix, bias []float64) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: matmul %dx%d @ %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if out.Rows != a.Rows || out.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: matmul out %dx%d for %dx%d result", out.Rows, out.Cols, a.Rows, b.Cols))
	}
	if len(bias) != b.Cols {
		panic(fmt.Sprintf("tensor: row vec %d for %d cols", len(bias), b.Cols))
	}
	gemm(gemmNN, out, a, b, false, bias, nil)
}

// MatMulBiasReLUInto computes out = relu(a @ b + bias) and records the ReLU
// pass-through pattern in maskBits — bit i*out.Cols+j set when the pre-ReLU
// element was positive, matching nn's ReLU mask layout. maskBits must hold
// ceil(out elements / 64) zeroed words; bits are only ever set (concurrent
// tiles OR disjoint bits), never cleared. This is the fused Dense+ReLU
// forward: one pass over the output instead of three plus an intermediate
// activation buffer.
func MatMulBiasReLUInto(out, a, b *Matrix, bias []float64, maskBits []uint64) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: matmul %dx%d @ %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if out.Rows != a.Rows || out.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: matmul out %dx%d for %dx%d result", out.Rows, out.Cols, a.Rows, b.Cols))
	}
	if len(bias) != b.Cols {
		panic(fmt.Sprintf("tensor: row vec %d for %d cols", len(bias), b.Cols))
	}
	if want := (a.Rows*b.Cols + 63) / 64; len(maskBits) < want {
		panic(fmt.Sprintf("tensor: relu mask %d words for %d elements", len(maskBits), a.Rows*b.Cols))
	}
	gemm(gemmNN, out, a, b, false, bias, maskBits)
}

// SumRowsInto accumulates the column-wise sums of m into dst (len Cols) —
// the bias-gradient kernel fused with gradient accumulation. dst is NOT
// zeroed first.
func SumRowsInto(dst []float64, m *Matrix) {
	if len(dst) != m.Cols {
		panic(fmt.Sprintf("tensor: sum-rows dst %d for %d cols", len(dst), m.Cols))
	}
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		for j, x := range row {
			dst[j] += x
		}
	}
}

// RowSliceInto points the reusable header dst at rows [lo, hi) of m, sharing
// storage — the allocation-free form of RowSlice for hot paths that keep a
// preallocated header per in-flight view.
func (m *Matrix) RowSliceInto(dst *Matrix, lo, hi int) {
	if lo < 0 || hi > m.Rows || lo > hi {
		panic(fmt.Sprintf("tensor: row slice [%d,%d) of %d rows", lo, hi, m.Rows))
	}
	dst.Rows, dst.Cols = hi-lo, m.Cols
	dst.Data = m.Data[lo*m.Cols : hi*m.Cols]
}
