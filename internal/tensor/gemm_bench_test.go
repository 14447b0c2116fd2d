package tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

// The BenchmarkGEMM family is the kernel layer's development benchmark: all
// three kinds at the 512-cube and at the shapes the benchmark/ workloads run,
// worker-count scaling, and the fused Dense-forward epilogues. Claims rest on
// benchmark/ (tensor.gemm_* probes); these rows are for working on a kernel.

const benchDim = 512

func benchMats(n int) (a, b, out *Matrix) {
	rng := rand.New(rand.NewSource(1))
	return randMat(rng, n, n), randMat(rng, n, n), New(n, n)
}

// BenchmarkGEMM times the blocked pool-parallel core at 512^3 for every GEMM
// kind (NN forward, TN weight-gradient, NT input-gradient).
func BenchmarkGEMM(b *testing.B) {
	x, y, out := benchMats(benchDim)
	for _, tc := range []struct {
		name string
		run  func()
	}{
		{"NN", func() { MatMulInto(out, x, y) }},
		{"TN", func() { MatMulATBAddInto(out, x, y) }},
		{"NT", func() { MatMulABTInto(out, x, y) }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tc.run()
			}
		})
	}
}

// BenchmarkGEMMShapes times the three products of a Dense layer (forward NN,
// weight-gradient TN, input-gradient NT) at the rows x in x out the training
// workloads spend their time in — pipe_compute's 64x128x128, session_tcp's
// 256x64x64 and hybrid_allreduce's 8x512x512, where NT's pack of the 512x512
// weight has only 8 rows to amortise over — and reports GFLOP/s.
func BenchmarkGEMMShapes(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, l := range []struct{ rows, in, out int }{{64, 128, 128}, {256, 64, 64}, {8, 512, 512}} {
		x, w, dy := randMat(rng, l.rows, l.in), randMat(rng, l.in, l.out), randMat(rng, l.rows, l.out)
		y, dw, dx := New(l.rows, l.out), New(l.in, l.out), New(l.rows, l.in)
		for _, tc := range []struct {
			name string
			run  func()
		}{
			{"NN", func() { MatMulInto(y, x, w) }},
			{"TN", func() { MatMulATBAddInto(dw, x, dy) }},
			{"NT", func() { MatMulABTInto(dx, dy, w) }},
		} {
			b.Run(fmt.Sprintf("%dx%dx%d/%s", l.rows, l.in, l.out, tc.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					tc.run()
				}
				b.ReportMetric(2*float64(l.rows*l.in*l.out)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
			})
		}
	}
}

// BenchmarkGEMMWorkers sweeps the shared-pool worker count at 512^3 NN
// (near-linear only on multi-core hosts; a 1-core container serializes the
// helpers).
func BenchmarkGEMMWorkers(b *testing.B) {
	x, y, out := benchMats(benchDim)
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("w%d", w), func(b *testing.B) {
			prev := SetWorkers(w)
			defer SetWorkers(prev)
			for i := 0; i < b.N; i++ {
				MatMulInto(out, x, y)
			}
		})
	}
}

// BenchmarkGEMMFusedForward compares the Dense(+ReLU) forward as three
// separate passes (matmul, bias add, rectify+mask) against the fused
// single-pass kernels at 256x256 @ 256x256.
func BenchmarkGEMMFusedForward(b *testing.B) {
	x, y, out := benchMats(256)
	rng := rand.New(rand.NewSource(3))
	bias := make([]float64, 256)
	for i := range bias {
		bias[i] = rng.NormFloat64()
	}
	mask := make([]uint64, (256*256+63)/64)
	relu := func(m *Matrix) {
		for i, v := range m.Data {
			if v > 0 {
				mask[i>>6] |= 1 << (uint(i) & 63)
			} else {
				m.Data[i] = 0
			}
		}
	}
	b.Run("unfused", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			MatMulInto(out, x, y)
			for r := 0; r < out.Rows; r++ {
				row := out.Row(r)
				for j, v := range bias {
					row[j] += v
				}
			}
			relu(out)
		}
	})
	b.Run("fusedBias", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			MatMulAddRowVecInto(out, x, y, bias)
		}
	})
	b.Run("fusedBiasReLU", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			MatMulBiasReLUInto(out, x, y, bias, mask)
		}
	})
}
