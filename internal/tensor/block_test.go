package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// forceBlocks shrinks the cache blocks and drops the fan-out threshold so
// tiny, hand-checkable shapes exercise the full tiled/pool-parallel machinery
// (including block-boundary remainders), restoring the tuned sizes when the
// test ends.
func forceBlocks(t testing.TB, mc, nc, kc int) {
	t.Helper()
	pm, pn, pk, pp := blockMC, blockNC, blockKC, parGEMMFlops
	blockMC, blockNC, blockKC, parGEMMFlops = mc, nc, kc, 0
	t.Cleanup(func() { blockMC, blockNC, blockKC, parGEMMFlops = pm, pn, pk, pp })
}

// eachKernel runs body once per micro-kernel this host has: "simd" (the
// assembly kernel, skipped where the CPU probe found none) and "portable"
// (useSIMD forced off). CI selects the second with -run '/portable'.
func eachKernel(t *testing.T, body func(t *testing.T)) {
	t.Helper()
	for _, simd := range []bool{true, false} {
		name := "portable"
		if simd {
			name = "simd"
		}
		t.Run(name, func(t *testing.T) {
			if simd && !hasSIMD {
				t.Skip("no SIMD kernel on this host")
			}
			prev := useSIMD
			useSIMD = simd
			t.Cleanup(func() { useSIMD = prev })
			body(t)
		})
	}
}

// sameBits reports whether x and y are the same float64 bit pattern — the
// determinism contract is exact, not approximate, down to the sign of a zero.
// Any NaN equals any NaN: when two different NaNs meet in an add or multiply,
// x86 keeps the first operand's payload, and which operand the compiler puts
// first in the scalar oracle is its choice (the race build flips it).
func sameBits(x, y float64) bool {
	return math.Float64bits(x) == math.Float64bits(y) || (x != x && y != y)
}

// requireSameBits fails when any element of got differs from want by
// sameBits.
func requireSameBits(t testing.TB, ctx string, got, want *Matrix) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", ctx, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		if !sameBits(got.Data[i], want.Data[i]) {
			t.Fatalf("%s: element %d = %v (bits %x), want %v (bits %x)",
				ctx, i, got.Data[i], math.Float64bits(got.Data[i]),
				want.Data[i], math.Float64bits(want.Data[i]))
		}
	}
}

// gemmCase holds one adversarial logical shape.
type gemmCase struct{ m, n, k int }

var (
	gemmKinds     = []gemmKind{gemmNN, gemmTN, gemmNT}
	gemmKindNames = []string{"NN", "TN", "NT"}
)

// adversarialDims straddle every remainder class of the 4x8 micro-tile, the
// 2x4 portable block and the k unroll of the NT pack, at and around the
// cache-block sizes.
var adversarialDims = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 63, 64, 65, 127, 129}

// adversarialShapes is every (m, n, k) over the non-zero adversarialDims
// whose product stays at or under maxWork mul-adds — the whole cube up to 17,
// and the large dims against small partners. Zero dims (including k = 0,
// where overwrite must still zero the output) get a few partners each. extra
// rides along.
func adversarialShapes(maxWork int, extra ...gemmCase) []gemmCase {
	var out []gemmCase
	for _, m := range adversarialDims[1:] {
		for _, n := range adversarialDims[1:] {
			for _, k := range adversarialDims[1:] {
				if m*n*k <= maxWork {
					out = append(out, gemmCase{m, n, k})
				}
			}
		}
	}
	for _, x := range []int{1, 8, 17} {
		for _, y := range []int{1, 8, 17} {
			out = append(out, gemmCase{0, x, y}, gemmCase{x, 0, y}, gemmCase{x, y, 0})
		}
	}
	return append(out, extra...)
}

// fullSizeCorners put the large dims against each other, past one tuned tile.
var fullSizeCorners = []gemmCase{{65, 65, 65}, {129, 17, 127}, {17, 129, 64}, {64, 127, 129}}

// blockStraddlers overhang the shrunken test blocks in every dimension while
// still holding whole 4x8 micro-tiles, so a tile grid, several k panels,
// assembly interiors and portable edges all meet in one product.
var blockStraddlers = []gemmCase{
	{8, 16, 5}, {9, 17, 6}, {12, 24, 9}, {16, 8, 9}, {16, 32, 10}, {15, 15, 15},
	{17, 33, 11}, {33, 17, 7}, {63, 9, 7}, {9, 63, 7}, {5, 65, 16}, {65, 5, 16},
}

// specials are the values whose sign, payload or absorption a reordered or
// differently-rounded chain would get wrong.
var specials = []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 0x1p-1060, 0x1p1000, -0x1p1000}

// guard brackets every view a test hands to a kernel. It is a NaN, so an
// out-of-range read that reaches an accumulator poisons the result, and its
// payload is checked afterwards, so an out-of-range write is caught too.
var guard = math.Float64frombits(0x7ff8_dead_beef_0001)

const guardLen = 9

// view is a matrix laid over the middle of a larger guarded buffer, starting
// at an odd element offset so its rows sit at every alignment a RowSlice of
// real activations can have.
type view struct {
	*Matrix
	buf []float64
}

// newView returns a rows x cols view filled from rng; special > 0 replaces
// roughly one element in special with a value from specials.
func newView(rng *rand.Rand, rows, cols, special int) view {
	buf := make([]float64, guardLen+rows*cols+guardLen)
	for i := range buf {
		buf[i] = guard
	}
	data := buf[guardLen : guardLen+rows*cols : guardLen+rows*cols]
	for i := range data {
		data[i] = rng.Float64()*2 - 1
		if special > 0 && rng.Intn(special) == 0 {
			data[i] = specials[rng.Intn(len(specials))]
		}
	}
	return view{FromSlice(rows, cols, data), buf}
}

func (v view) clone() view {
	buf := append([]float64(nil), v.buf...)
	n := v.Rows * v.Cols
	return view{FromSlice(v.Rows, v.Cols, buf[guardLen:guardLen+n:guardLen+n]), buf}
}

func (v view) requireGuards(t testing.TB, ctx string) {
	t.Helper()
	n := v.Rows * v.Cols
	for i, x := range v.buf {
		if (i < guardLen || i >= guardLen+n) && math.Float64bits(x) != math.Float64bits(guard) {
			t.Fatalf("%s: wrote outside the matrix at buffer element %d", ctx, i-guardLen)
		}
	}
}

// viewOperands builds guarded (a, b) with the physical layouts kind expects
// for the logical product dimensions (m, n, k).
func viewOperands(rng *rand.Rand, kind gemmKind, c gemmCase, special int) (a, b view) {
	switch kind {
	case gemmNN:
		return newView(rng, c.m, c.k, special), newView(rng, c.k, c.n, special)
	case gemmTN:
		return newView(rng, c.k, c.m, special), newView(rng, c.k, c.n, special)
	default: // gemmNT
		return newView(rng, c.m, c.k, special), newView(rng, c.n, c.k, special)
	}
}

// checkGemmCase runs one (kind, shape, mode) through gemm on guarded views at
// odd offsets and requires the exact bits of the scalar oracle, with the
// guards around out intact.
func checkGemmCase(t testing.TB, rng *rand.Rand, kind gemmKind, c gemmCase, acc bool, special int) {
	t.Helper()
	a, b := viewOperands(rng, kind, c, special)
	got := newView(rng, c.m, c.n, special) // garbage: overwrite must not leak it
	want := got.clone()
	refGemm(kind, want.Matrix, a.Matrix, b.Matrix, acc)
	gemm(kind, got.Matrix, a.Matrix, b.Matrix, acc, nil, nil)
	ctx := fmt.Sprintf("%s %dx%dx%d acc=%v kernel=%s", gemmKindNames[kind], c.m, c.n, c.k, acc, KernelName())
	requireSameBits(t, ctx, got.Matrix, want.Matrix)
	got.requireGuards(t, ctx)
}

// sweepBitIdentical checks every kind x shape x overwrite/accumulate, on
// plain random data and again with specials scattered through all three
// matrices.
func sweepBitIdentical(t *testing.T, seed int64, shapes []gemmCase) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for _, kind := range gemmKinds {
		for _, c := range shapes {
			for _, acc := range []bool{false, true} {
				checkGemmCase(t, rng, kind, c, acc, 0)
				checkGemmCase(t, rng, kind, c, acc, 7)
			}
		}
	}
}

// sweepWork trims a sweep's adversarial cube under -short and under the race
// detector, whose instrumentation slows the scalar oracle tenfold; the
// extra shapes always run.
func sweepWork(maxWork int) int {
	if raceEnabled || testing.Short() {
		return maxWork / 16
	}
	return maxWork
}

// TestBlockedGemmBitIdenticalToReference pins every GEMM kind bit-identical
// to the scalar reference with the blocks shrunk so that small shapes span
// many tiles and k panels and dispatch through the pool: both kernels,
// adversarial shapes, overwrite and accumulate, worker counts 1/2/8. The 8x16
// and 6x24 blocks hold whole micro-tiles; the 4x4 ones leave the assembly
// kernel no full strip, so every element of those runs is an edge.
func TestBlockedGemmBitIdenticalToReference(t *testing.T) {
	shapes := adversarialShapes(sweepWork(96), blockStraddlers...)
	eachKernel(t, func(t *testing.T) {
		for _, cfg := range []struct{ mc, nc, kc, workers int }{
			{8, 16, 5, 1}, {8, 16, 5, 2}, {8, 16, 5, 8}, {4, 4, 3, 2}, {6, 24, 4, 8},
		} {
			forceBlocks(t, cfg.mc, cfg.nc, cfg.kc)
			prev := SetWorkers(cfg.workers)
			sweepBitIdentical(t, 42, shapes)
			SetWorkers(prev)
		}
	})
}

// TestSmallGemmBitIdenticalToReference pins the configuration every training
// workload runs — tuned block sizes, products below the fan-out threshold
// computed on the calling goroutine — bit-identical to the scalar reference
// for both kernels over the adversarial cube.
func TestSmallGemmBitIdenticalToReference(t *testing.T) {
	shapes := adversarialShapes(sweepWork(1<<12), append(blockStraddlers, fullSizeCorners...)...)
	eachKernel(t, func(t *testing.T) {
		sweepBitIdentical(t, 7, shapes)
	})
}

// TestFusedEpiloguesBitIdentical pins the fused bias and bias+ReLU+mask
// kernels bit-identical to the unfused sequence (matmul, then bias row add,
// then rectify-and-record) for both kernels, across worker counts and shapes
// whose 64-bit mask words straddle rows and tiles.
func TestFusedEpiloguesBitIdentical(t *testing.T) {
	shapes := []gemmCase{{1, 1, 1}, {3, 5, 4}, {9, 13, 7}, {27, 5, 6}, {16, 8, 9}, {5, 3, 0}, {12, 24, 9}, {17, 33, 5}, {8, 65, 3}}
	eachKernel(t, func(t *testing.T) {
		for _, blocks := range [][3]int{{8, 16, 5}, {4, 4, 3}, {128, 128, 192}} {
			forceBlocks(t, blocks[0], blocks[1], blocks[2])
			rng := rand.New(rand.NewSource(7))
			for _, w := range []int{1, 2, 8} {
				prev := SetWorkers(w)
				for _, c := range shapes {
					checkFusedEpilogues(t, rng, c)
				}
				SetWorkers(prev)
			}
		}
	})
}

func checkFusedEpilogues(t *testing.T, rng *rand.Rand, c gemmCase) {
	t.Helper()
	a, b := viewOperands(rng, gemmNN, c, 0)
	bias := make([]float64, c.n)
	for i := range bias {
		bias[i] = rng.NormFloat64()
	}

	want := New(c.m, c.n)
	refGemm(gemmNN, want, a.Matrix, b.Matrix, false)
	for i := 0; i < c.m; i++ {
		row := want.Row(i)
		for j, v := range bias {
			row[j] += v
		}
	}

	got := newView(rng, c.m, c.n, 0)
	MatMulAddRowVecInto(got.Matrix, a.Matrix, b.Matrix, bias)
	requireSameBits(t, "bias", got.Matrix, want)
	got.requireGuards(t, "bias")

	wantMask := make([]uint64, (c.m*c.n+63)/64)
	for i, v := range want.Data {
		if v > 0 {
			wantMask[i>>6] |= 1 << (uint(i) & 63)
		} else {
			want.Data[i] = 0
		}
	}
	gotMask := make([]uint64, len(wantMask))
	got = newView(rng, c.m, c.n, 0)
	MatMulBiasReLUInto(got.Matrix, a.Matrix, b.Matrix, bias, gotMask)
	requireSameBits(t, "bias+relu", got.Matrix, want)
	got.requireGuards(t, "bias+relu")
	for i := range wantMask {
		if gotMask[i] != wantMask[i] {
			t.Fatalf("relu mask word %d = %x, want %x", i, gotMask[i], wantMask[i])
		}
	}
}

// TestGemmWorkerCountDeterminism runs full-size (tuned-block) products that
// straddle the 128/192 block boundaries and fan out over the pool, and
// requires bitwise-equal results for every worker count and against the
// scalar reference — the property the repo's schedule-equivalence assertions
// rest on.
func TestGemmWorkerCountDeterminism(t *testing.T) {
	c := gemmCase{200, 150, 97} // 2.9M mul-adds: above the fan-out threshold
	eachKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(3))
		for ki, kind := range gemmKinds {
			a, b := viewOperands(rng, kind, c, 0)
			want := New(c.m, c.n)
			refGemm(kind, want, a.Matrix, b.Matrix, false)
			for _, w := range []int{1, 2, 8} {
				prev := SetWorkers(w)
				got := New(c.m, c.n)
				gemm(kind, got, a.Matrix, b.Matrix, false, nil, nil)
				SetWorkers(prev)
				requireSameBits(t, fmt.Sprintf("%s w=%d", gemmKindNames[ki], w), got, want)
			}
		}
	})
}

// TestPackNT8 checks the NT packing routine against the transposition it
// stands for, for every k remainder class, with guards proving it writes
// exactly dst[0:8k].
func TestPackNT8(t *testing.T) {
	if !hasSIMD {
		t.Skip("no SIMD kernel on this host")
	}
	rng := rand.New(rand.NewSource(13))
	for _, k := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 31, 64} {
		for _, stride := range []int{k, k + 1, k + 5} {
			src := newView(rng, microN, max(stride, 1), 0)
			dst := newView(rng, max(k, 1), microN, 0)
			packNT8(&dst.Data[0], &src.Data[0], stride, k)
			for kk := 0; kk < k; kk++ {
				for r := 0; r < microN; r++ {
					if got, want := dst.Data[kk*microN+r], src.Data[r*stride+kk]; got != want {
						t.Fatalf("k=%d stride=%d: dst[%d][%d] = %v, want %v", k, stride, kk, r, got, want)
					}
				}
			}
			dst.requireGuards(t, fmt.Sprintf("packNT8 k=%d", k))
		}
	}
}

// FuzzGemmBitIdentical lets the fuzzer pick kind, shape, mode, block sizes,
// worker count and data seed, and requires both kernels to reproduce the
// scalar oracle's bits with the guards around out intact. The seed corpus is
// checked in under testdata/fuzz.
func FuzzGemmBitIdentical(f *testing.F) {
	f.Fuzz(func(t *testing.T, kind, m, n, k uint8, acc bool, blocks, workers uint8, seed int64) {
		switch blocks % 3 {
		case 1:
			forceBlocks(t, 8, 16, 5)
		case 2:
			forceBlocks(t, 4, 24, 3)
		}
		prev := SetWorkers(1 + int(workers%8))
		defer SetWorkers(prev)
		c := gemmCase{int(m), int(n), int(k)}
		for _, simd := range []bool{hasSIMD, false} {
			old := useSIMD
			useSIMD = simd
			rng := rand.New(rand.NewSource(seed))
			checkGemmCase(t, rng, gemmKinds[kind%3], c, acc, 5)
			useSIMD = old
		}
	})
}

// TestWarmKernelZeroAlloc is the warm-kernel allocation gate at the
// GOMAXPROCS the test runs under (CI: -cpu 1,2,4): once the dispatch and pack
// free lists are primed, parallel kernels of every kind must not allocate per
// call. It reads the allocator's own counter over 200 iterations instead of
// testing.AllocsPerRun, which pins GOMAXPROCS to 1 while it measures. The
// budget of one object per 20 iterations (60 kernel calls) is for the
// runtime, not the kernels: a goroutine parking on a channel takes a wait
// record from its P's cache and the goroutine it wakes returns it to another
// P's, so until every cache has filled a dry one allocates now and then
// (measured 0.005-0.03 per iteration, falling with run length). The GC-emptied
// sync.Pools this gate replaced read 0.1-0.3, and a real per-call allocation
// reads 1 or more.
func TestWarmKernelZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	prev := SetWorkers(8)
	defer SetWorkers(prev)
	rng := rand.New(rand.NewSource(11))
	a := randMat(rng, 192, 192)
	b := randMat(rng, 192, 192)
	out := New(192, 192)
	gw := New(192, 192)
	run := func() {
		MatMulInto(out, a, b)
		MatMulATBAddInto(gw, a, b)
		MatMulABTInto(out, a, b)
	}
	const calls = 200
	// Finish any collection the tests before this one set off, so that its
	// mark workers start, and the runtime's channel-wait records are dropped,
	// before the priming calls rather than in the middle of the measurement.
	runtime.GC()
	for i := 0; i < 3; i++ {
		run() // prime the free lists
	}
	var m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m1)
	for i := 0; i < calls; i++ {
		run()
	}
	runtime.ReadMemStats(&m2)
	if n := m2.Mallocs - m1.Mallocs; n > calls/20 {
		t.Fatalf("warm parallel kernels allocated %d objects over %d iterations (%.3f each), want none per call",
			n, calls, float64(n)/calls)
	}
}

// TestConcurrentGemmCallers drives the shared pool from several goroutines at
// once (each above the fan-out threshold) and checks every result, so the
// race detector sees the dispatch protocol under contention.
func TestConcurrentGemmCallers(t *testing.T) {
	prev := SetWorkers(4)
	defer SetWorkers(prev)
	pp := parGEMMFlops
	parGEMMFlops = 1 << 18
	defer func() { parGEMMFlops = pp }()
	rng := rand.New(rand.NewSource(5))
	a := randMat(rng, 160, 96)
	b := randMat(rng, 96, 136) // 2.1M mul-adds over a 2x2 tile grid
	want := New(160, 136)
	refGemm(gemmNN, want, a, b, false)
	eachKernel(t, func(t *testing.T) {
		var wg sync.WaitGroup
		for g := 0; g < 6; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				out := New(160, 136)
				for iter := 0; iter < 10; iter++ {
					MatMulInto(out, a, b)
					for i := range want.Data {
						if !sameBits(out.Data[i], want.Data[i]) {
							t.Errorf("concurrent result diverged at element %d", i)
							return
						}
					}
				}
			}()
		}
		wg.Wait()
	})
}

// TestSetWorkersSticksAgainstLazyInit races an explicit SetWorkers with the
// pool's lazy first-use start: whichever runs first, the explicit setting
// must be what remains. (ensurePool used to decide to start the default pool
// under the lock but start it after releasing it, overriding a SetWorkers
// that slipped in between.)
func TestSetWorkersSticksAgainstLazyInit(t *testing.T) {
	defer SetWorkers(SetWorkers(1))
	want := runtime.GOMAXPROCS(0) + 3 // never the lazy default
	for iter := 0; iter < 2000; iter++ {
		poolMu.Lock()
		poolStarted.Store(false) // as at process start
		poolMu.Unlock()
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if g == 0 {
					SetWorkers(want)
				} else {
					Workers()
				}
			}()
		}
		close(start)
		wg.Wait()
		if got := Workers(); got != want {
			t.Fatalf("iteration %d: Workers() = %d after SetWorkers(%d) raced first use", iter, got, want)
		}
	}
}

// TestGemmRejectsShortData pins the extent check in front of the assembly
// kernel: a hand-built header whose Data is shorter than its shape panics
// instead of reading out of bounds.
func TestGemmRejectsShortData(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected a panic for a matrix whose data is shorter than its shape")
		}
	}()
	a := &Matrix{Rows: 8, Cols: 8, Data: make([]float64, 63)}
	MatMulInto(New(8, 8), a, New(8, 8))
}

// TestKernelName pins the provenance string to the kernel actually selected.
func TestKernelName(t *testing.T) {
	eachKernel(t, func(t *testing.T) {
		want := "go"
		if useSIMD {
			want = "avx2-muladd"
			if fusedFMA {
				want = "avx2-fma"
			}
		}
		if got := KernelName(); got != want {
			t.Fatalf("KernelName() = %q, want %q", got, want)
		}
	})
}
