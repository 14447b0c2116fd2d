package tensor

import (
	"fmt"
	"math"
	"sync/atomic"
)

// This file is the GEMM core every matmul variant and every size routes
// through: gemm() splits the output into disjoint tiles, each tile walks k in
// panels, and each panel is folded in by one micro-kernel.
//
//   - The micro-kernel (gemmKernel4x8, kernel_amd64.s) holds a 4x8 block of
//     out in eight YMM accumulators, vectorised along output columns j: per k
//     step it loads 8 consecutive b elements, broadcasts 4 a elements and
//     issues 8 multiply-adds in the build's fmadd flavour. a is addressed by
//     (row stride, k stride) and b by a k stride, so NN and TN read both
//     operands where they lie: nothing is packed.
//   - Only NT (a@bᵀ) has b laid out against the vector direction. Its b panel
//     is transposed into k-major 8-wide strips (packNT8, 4x4 in-register
//     transposes); NT tiles span every row of out, so each b panel is packed
//     exactly once per call.
//   - Rows past the last multiple of 4, columns past the last multiple of 8,
//     and every product on a host without AVX2 go through goPanel, the
//     portable kernel, which reads all three layouts in place.
//
// Determinism: a tile owns its output elements exclusively and runs its k
// panels in increasing order with increasing kk inside each panel, so every
// output element is one in-order accumulation chain (the refGemm contract)
// whichever kernel computes it and however many workers execute tiles. Fused
// bias/ReLU epilogues run once per tile after its final panel, which
// likewise touches each element exactly once.

// Cache block sizes: a tile is blockMC x blockNC outputs and a k panel is
// blockKC deep, so the in-place (or packed) b block a tile sweeps is 192 KiB
// and stays L2-resident across the tile's row sweep. They are variables, not
// constants, so property tests can shrink them to force block-boundary-
// straddling and multi-tile paths on small, checkable shapes.
var (
	blockMC = 128
	blockNC = 128
	blockKC = 192
)

// microM x microN is the output block one gemmKernel4x8 call computes.
const (
	microM = 4
	microN = 8
)

// parGEMMFlops is the m*n*k product below which a multi-tile GEMM runs its
// tiles on the calling goroutine instead of fanning out over the pool: a
// helper's share must be worth several channel hand-offs (measurement in
// ARCHITECTURE.md, "The kernel layer"). A variable so property tests can
// force tiny shapes through the pool.
var parGEMMFlops = 1 << 21

// useSIMD routes full micro-tiles through the assembly kernel. It is set once
// from the CPU probe; tests clear it to force the portable kernel.
var useSIMD = hasSIMD

// KernelName names the GEMM micro-kernel this process runs — "avx2-fma",
// "avx2-muladd" (separate multiply and add roundings, the default amd64
// build) or "go" (the portable kernel) — so benchmark provenance can say
// which one produced a number.
func KernelName() string {
	switch {
	case !useSIMD:
		return "go"
	case fusedFMA:
		return "avx2-fma"
	default:
		return "avx2-muladd"
	}
}

// freeList is a bounded set of reusable values. Unlike sync.Pool the garbage
// collector never empties it, so a warm kernel's "no allocation per call" is
// a fact at any GOMAXPROCS rather than a property of the last GC's timing.
type freeList[T any] chan T

func (f freeList[T]) get() (v T, ok bool) {
	select {
	case v = <-f:
		return v, true
	default:
		return v, false
	}
}

func (f freeList[T]) put(v T) {
	select {
	case f <- v:
	default:
	}
}

// packFree recycles NT pack panels. One panel is live per NT tile in flight;
// 32 covers every caller plus helper on the hosts this runs on, and a burst
// beyond it only costs the surplus tiles an allocation each.
var packFree = make(freeList[[]float64], 32)

// gemmJob is one GEMM dispatch: operands, their strides, optional fused
// epilogues, and the tile grid its disjoint output tiles are indexed by.
// Parallel runs copy the job by value; all methods treat it as read-only
// apart from writes to out.
type gemmJob struct {
	kind       gemmKind
	out, a, b  *Matrix
	accumulate bool
	simd       bool
	bias       []float64
	reluMask   []uint64
	m, n, k    int

	// Logical a(i,kk) is a.Data[i*ars+kk*aks] and b(kk,j) is
	// b.Data[kk*bks+j*bjs].
	ars, aks, bks, bjs int

	// Tiles are tileM rows by blockNC columns, tilesN to a row of the grid.
	tileM, tilesN int

	// Vector-kernel dispatch (see vec.go). When vecOp is non-zero the job is
	// an element-wise vector kernel and the gemm fields above are unused; the
	// fields live here so parRun's by-value job copy stays allocation-free
	// instead of forcing an interface indirection.
	vecOp  vecKind
	vd, vs []float64
	alpha  float64
	vspan  int
}

// gemm runs one GEMM variant: inline when it is a single tile or too small
// to be worth a hand-off, across the worker pool otherwise. bias (len n,
// added to every row) and reluMask (pass-through bits at flat index i*n+j)
// are optional fused epilogues; results are bit-identical for any worker
// count and either kernel.
func gemm(kind gemmKind, out, a, b *Matrix, accumulate bool, bias []float64, reluMask []uint64) {
	m, n, k := gemmDims(kind, a, b)
	// The assembly kernel trusts these extents, so a hand-built Matrix whose
	// Data is shorter than its shape must fail here, not read out of bounds.
	if len(out.Data) < m*n || len(a.Data) < a.Rows*a.Cols || len(b.Data) < b.Rows*b.Cols {
		panic(fmt.Sprintf("tensor: matrix data shorter than shape (out %d, a %d, b %d elements)",
			len(out.Data), len(a.Data), len(b.Data)))
	}
	g := gemmJob{
		kind: kind, out: out, a: a, b: b, accumulate: accumulate, simd: useSIMD,
		bias: bias, reluMask: reluMask, m: m, n: n, k: k,
		ars: a.Cols, aks: 1, bks: b.Cols, bjs: 1, tileM: blockMC,
	}
	switch kind {
	case gemmTN:
		g.ars, g.aks = 1, a.Cols
	case gemmNT:
		g.bks, g.bjs = 1, b.Cols
		if g.simd {
			g.tileM = max(m, 1) // full height: one pack per b panel
		}
	}
	g.tilesN = (n + blockNC - 1) / blockNC
	ntiles := (m + g.tileM - 1) / g.tileM * g.tilesN
	if ntiles > 1 && m*n*k >= parGEMMFlops {
		parallelTiles(&g, ntiles)
		return
	}
	for t := 0; t < ntiles; t++ {
		g.runTile(t)
	}
}

// runTile computes one output tile end to end: zero (or keep, when
// accumulating) the tile, fold in every k panel, then apply the fused
// epilogues. Vector-kernel jobs dispatch through the same entry point so the
// pool protocol stays shared.
func (g *gemmJob) runTile(t int) {
	if g.vecOp != vecNone {
		g.runVecSpan(t)
		return
	}
	ti, tj := t/g.tilesN, t%g.tilesN
	i0 := ti * g.tileM
	i1 := min(i0+g.tileM, g.m)
	j0 := tj * blockNC
	j1 := min(j0+blockNC, g.n)
	oc := g.out.Cols
	if !g.accumulate {
		for i := i0; i < i1; i++ {
			clear(g.out.Data[i*oc+j0 : i*oc+j1])
		}
	}
	// Full micro-tiles are rows [i0,iF) x columns [j0,jF); the portable
	// kernel takes the right and bottom edges.
	iF, jF := i0, j0
	if g.simd {
		iF += (i1 - i0) &^ (microM - 1)
		jF += (j1 - j0) &^ (microN - 1)
		if iF == i0 || jF == j0 {
			iF, jF = i0, j0 // no whole micro-tile: pack nothing, all edge
		}
	}
	var bt []float64
	if g.kind == gemmNT && jF > j0 && g.k > 0 {
		bt = getPack((jF - j0) * min(blockKC, g.k))
	}
	for pc := 0; pc < g.k; pc += blockKC {
		kcb := min(blockKC, g.k-pc)
		if jF > j0 {
			g.simdPanel(i0, iF, j0, jF, pc, kcb, bt)
		}
		g.goPanel(i0, i1, jF, j1, pc, kcb)
		g.goPanel(iF, i1, j0, jF, pc, kcb)
	}
	if bt != nil {
		packFree.put(bt)
	}
	g.epilogue(i0, i1, j0, j1)
}

// getPack returns an NT pack panel of at least n elements, recycled when one
// is free. Fresh panels are sized for a full tuned block so that any later
// request fits them.
func getPack(n int) []float64 {
	if bt, ok := packFree.get(); ok && cap(bt) >= n {
		return bt[:n]
	}
	return make([]float64, n, max(n, blockKC*blockNC))
}

// simdPanel folds one k panel into out[i0:i1, j0:j1] — whole micro-tiles only
// — with the assembly kernel. Column strips are the outer loop and row
// blocks of blockMC the outermost, so one strip of b (and, for NT, the packed
// panel) is reused across a cache-sized run of a rows.
func (g *gemmJob) simdPanel(i0, i1, j0, j1, pc, kcb int, bt []float64) {
	ad, bd, od, oc := g.a.Data, g.b.Data, g.out.Data, g.out.Cols
	bks := g.bks
	if g.kind == gemmNT {
		for j := j0; j < j1; j += microN {
			packNT8(&bt[(j-j0)*kcb], &bd[j*g.bjs+pc], g.bjs, kcb)
		}
		bd, bks = bt, microN
	}
	mc := max(blockMC&^(microM-1), microM)
	for ic := i0; ic < i1; ic += mc {
		ie := min(ic+mc, i1)
		for j := j0; j < j1; j += microN {
			boff := pc*bks + j
			if g.kind == gemmNT {
				boff = (j - j0) * kcb
			}
			bp := &bd[boff]
			for i := ic; i < ie; i += microM {
				gemmKernel4x8(kcb, &ad[i*g.ars+pc*g.aks], g.ars, g.aks, bp, bks, &od[i*oc+j], oc)
			}
		}
	}
}

// goPanel is the portable kernel: it folds one k panel into out[i0:i1, j0:j1]
// for any extent and any operand layout, 2x4 outputs at a time in eight
// scalar accumulators. A block hanging over the bottom or right edge clamps
// its surplus rows and columns onto the last valid one: the duplicates load
// the same element, run the same chain and store the same bits back, which
// keeps every remainder class on the one loop.
func (g *gemmJob) goPanel(i0, i1, j0, j1, pc, kcb int) {
	ad, bd, od, oc := g.a.Data, g.b.Data, g.out.Data, g.out.Cols
	ars, aks, bks, bjs := g.ars, g.aks, g.bks, g.bjs
	for i := i0; i < i1; i += 2 {
		i1c := min(i+1, i1-1)
		r0, r1, da := i*oc, i1c*oc, (i1c-i)*ars
		for j := j0; j < j1; j += 4 {
			j1c, j2c, j3c := min(j+1, j1-1), min(j+2, j1-1), min(j+3, j1-1)
			db1, db2, db3 := (j1c-j)*bjs, (j2c-j)*bjs, (j3c-j)*bjs
			c00, c01, c02, c03 := od[r0+j], od[r0+j1c], od[r0+j2c], od[r0+j3c]
			c10, c11, c12, c13 := od[r1+j], od[r1+j1c], od[r1+j2c], od[r1+j3c]
			pa, pb := i*ars+pc*aks, pc*bks+j*bjs
			for kk := 0; kk < kcb; kk++ {
				a0, a1 := ad[pa], ad[pa+da]
				b0, b1, b2, b3 := bd[pb], bd[pb+db1], bd[pb+db2], bd[pb+db3]
				c00 = fmadd(a0, b0, c00)
				c01 = fmadd(a0, b1, c01)
				c02 = fmadd(a0, b2, c02)
				c03 = fmadd(a0, b3, c03)
				c10 = fmadd(a1, b0, c10)
				c11 = fmadd(a1, b1, c11)
				c12 = fmadd(a1, b2, c12)
				c13 = fmadd(a1, b3, c13)
				pa += aks
				pb += bks
			}
			od[r0+j], od[r0+j1c], od[r0+j2c], od[r0+j3c] = c00, c01, c02, c03
			od[r1+j], od[r1+j1c], od[r1+j2c], od[r1+j3c] = c10, c11, c12, c13
		}
	}
}

// epilogue applies the fused bias and ReLU to the finished tile.
func (g *gemmJob) epilogue(i0, i1, j0, j1 int) {
	if g.bias == nil && g.reluMask == nil {
		return
	}
	od, oc := g.out.Data, g.out.Cols
	for i := i0; i < i1; i++ {
		row := od[i*oc : i*oc+oc]
		if g.bias != nil {
			bias := g.bias
			for j := j0; j < j1; j++ {
				row[j] += bias[j]
			}
		}
		if g.reluMask != nil {
			g.reluSpan(row, i*oc, j0, j1)
		}
	}
}

// reluSpan rectifies row[j0:j1] in place and records pass-through bits (flat
// element index base+j, matching nn's ReLU mask layout), batching bit sets
// into one mask-word update per word touched. The update is an atomic OR:
// 64-bit mask words need not align with tile boundaries, so concurrent tiles
// may share a word (ORing disjoint bits is order-independent, keeping the
// result deterministic).
func (g *gemmJob) reluSpan(row []float64, base, j0, j1 int) {
	mask := g.reluMask
	for j := j0; j < j1; {
		word := (base + j) >> 6
		end := min(j1, j+64-((base+j)&63))
		var bits uint64
		for ; j < end; j++ {
			// Branch-free: activations' signs are a coin toss to the
			// predictor. keep is all ones for a positive element.
			var keep uint64
			if row[j] > 0 {
				keep = ^uint64(0)
			}
			bits |= keep & (1 << (uint(base+j) & 63))
			row[j] = math.Float64frombits(math.Float64bits(row[j]) & keep)
		}
		if bits != 0 {
			atomic.OrUint64(&mask[word], bits)
		}
	}
}
