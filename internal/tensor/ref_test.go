package tensor

// This file holds the scalar reference GEMM, the test oracle: the executable
// specification of what every GEMM variant computes, down to the bit.
//
// The contract every kernel (the AVX2 micro-kernel, the portable kernel,
// pool-parallel tiles) must honor is simple:
//
//	each output element is produced by ONE accumulation chain that adds
//	a·b products in strictly increasing k order, seeded with 0 (overwrite)
//	or the prior out value (accumulate), using fmadd for every step.
//
// Because float addition is deterministic for a fixed operand sequence,
// any implementation that preserves that per-element chain — regardless of
// tiling, packing, register blocking, or which worker runs which tile — is
// bit-identical to these loops. Property tests in block_test.go pin that.

// refGemm is the scalar oracle: a plain ijk dot loop over the logical
// operands, one in-order accumulation chain per output element.
func refGemm(kind gemmKind, out, a, b *Matrix, accumulate bool) {
	m, n, k := gemmDims(kind, a, b)
	for i := 0; i < m; i++ {
		or := out.Row(i)[:n]
		for j := 0; j < n; j++ {
			var acc float64
			if accumulate {
				acc = or[j]
			}
			for kk := 0; kk < k; kk++ {
				var av, bv float64
				switch kind {
				case gemmNN:
					av, bv = a.Data[i*a.Cols+kk], b.Data[kk*b.Cols+j]
				case gemmTN:
					av, bv = a.Data[kk*a.Cols+i], b.Data[kk*b.Cols+j]
				default: // gemmNT
					av, bv = a.Data[i*a.Cols+kk], b.Data[j*b.Cols+kk]
				}
				acc = fmadd(av, bv, acc)
			}
			or[j] = acc
		}
	}
}
