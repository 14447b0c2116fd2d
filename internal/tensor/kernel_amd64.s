#include "textflag.h"

// AVX2 GEMM micro-kernel, NT packing routine and CPU-feature probe for
// block.go. The rounding contract is the build's fmadd flavour (fma_on.go /
// fma_off.go): one fused VFMADD231PD per step on GOAMD64=v3/v4, a separate
// VMULPD + VADDPD otherwise. When two different NaNs meet, x86 keeps the first
// source's payload; both forms below put a first in the multiply and the
// accumulator first in the add (or as the FMA's destination), which is the
// order the default build compiles the scalar oracle to.

#ifdef GOAMD64_v3
#define USE_FMA
#endif
#ifdef GOAMD64_v4
#define USE_FMA
#endif

// MULADD(b, a, acc, tmp): acc += a*b on four lanes.
#ifdef USE_FMA
#define MULADD(b, a, acc, tmp) \
	VFMADD231PD b, a, acc
#else
#define MULADD(b, a, acc, tmp) \
	VMULPD b, a, tmp; \
	VADDPD tmp, acc, acc
#endif

// func cpuHasAVX2() bool
//
// AVX2 is usable when CPUID reports AVX, OSXSAVE and (leaf 7) AVX2, and XCR0
// shows the OS saving both XMM and YMM state.
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	MOVL $0, AX
	CPUID
	CMPL AX, $7
	JLT  no
	MOVL $1, AX
	MOVL $0, CX
	CPUID
	ANDL $0x18000000, CX // OSXSAVE (bit 27) | AVX (bit 28)
	CMPL CX, $0x18000000
	JNE  no
	MOVL $0, CX
	XGETBV
	ANDL $6, AX // XCR0: SSE (bit 1) | AVX (bit 2) state enabled
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	MOVL $0, CX
	CPUID
	BTL  $5, BX // AVX2
	JCC  no
	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET

// func gemmKernel4x8(k int, a *float64, ars, aks int, b *float64, bks int, c *float64, crs int)
//
// c[r*crs+j] += sum over kk in [0,k), ascending, of a[r*ars+kk*aks] *
// b[kk*bks+j], for r in [0,4) and j in [0,8): one accumulation chain per
// output element, vectorised along j. Strides are in elements. Reads exactly
// those a and b elements and reads/writes exactly those 32 c elements.
TEXT ·gemmKernel4x8(SB), NOSPLIT, $0-64
	MOVQ k+0(FP), CX
	MOVQ a+8(FP), SI
	MOVQ ars+16(FP), R8
	MOVQ aks+24(FP), R10
	MOVQ b+32(FP), DI
	MOVQ bks+40(FP), R11
	MOVQ c+48(FP), DX
	MOVQ crs+56(FP), R12
	SHLQ $3, R8
	SHLQ $3, R10
	SHLQ $3, R11
	SHLQ $3, R12
	LEAQ (R8)(R8*2), R9   // 3*ars
	LEAQ (R12)(R12*2), R13 // 3*crs

	VMOVUPD (DX), Y0
	VMOVUPD 32(DX), Y1
	VMOVUPD (DX)(R12*1), Y2
	VMOVUPD 32(DX)(R12*1), Y3
	VMOVUPD (DX)(R12*2), Y4
	VMOVUPD 32(DX)(R12*2), Y5
	VMOVUPD (DX)(R13*1), Y6
	VMOVUPD 32(DX)(R13*1), Y7

	TESTQ CX, CX
	JLE   store

loop:
	VMOVUPD      (DI), Y14
	VMOVUPD      32(DI), Y15
	VBROADCASTSD (SI), Y8
	VBROADCASTSD (SI)(R8*1), Y9
	VBROADCASTSD (SI)(R8*2), Y10
	VBROADCASTSD (SI)(R9*1), Y11
	MULADD(Y14, Y8, Y0, Y12)
	MULADD(Y15, Y8, Y1, Y13)
	MULADD(Y14, Y9, Y2, Y12)
	MULADD(Y15, Y9, Y3, Y13)
	MULADD(Y14, Y10, Y4, Y12)
	MULADD(Y15, Y10, Y5, Y13)
	MULADD(Y14, Y11, Y6, Y12)
	MULADD(Y15, Y11, Y7, Y13)
	ADDQ         R10, SI
	ADDQ         R11, DI
	DECQ         CX
	JNZ          loop

store:
	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	VMOVUPD Y2, (DX)(R12*1)
	VMOVUPD Y3, 32(DX)(R12*1)
	VMOVUPD Y4, (DX)(R12*2)
	VMOVUPD Y5, 32(DX)(R12*2)
	VMOVUPD Y6, (DX)(R13*1)
	VMOVUPD Y7, 32(DX)(R13*1)
	VZEROUPPER
	RET

// func packNT8(dst, src *float64, stride, k int)
//
// Transposes eight rows of length k (row r starts at src[r*stride]) into the
// k-major strip dst[kk*8+r] = src[r*stride+kk] — the layout gemmKernel4x8
// reads b in with bks = 8. Four k steps at a time go through two 4x4
// in-register transposes; the k%4 tail is copied element-wise. Reads exactly
// 8*k source elements and writes exactly dst[0:8*k].
TEXT ·packNT8(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ stride+16(FP), R8
	MOVQ k+24(FP), CX
	SHLQ $3, R8
	LEAQ (R8)(R8*2), R9  // 3*stride
	LEAQ (R8)(R8*4), R10 // 5*stride
	LEAQ (R9)(R8*4), R11 // 7*stride

	SUBQ $4, CX
	JLT  tail

quad:
	VMOVUPD    (SI), Y0
	VMOVUPD    (SI)(R8*1), Y1
	VMOVUPD    (SI)(R8*2), Y2
	VMOVUPD    (SI)(R9*1), Y3
	VMOVUPD    (SI)(R8*4), Y4
	VMOVUPD    (SI)(R10*1), Y5
	VMOVUPD    (SI)(R9*2), Y6
	VMOVUPD    (SI)(R11*1), Y7
	VUNPCKLPD  Y1, Y0, Y8   // r0[0] r1[0] r0[2] r1[2]
	VUNPCKHPD  Y1, Y0, Y9   // r0[1] r1[1] r0[3] r1[3]
	VUNPCKLPD  Y3, Y2, Y10
	VUNPCKHPD  Y3, Y2, Y11
	VUNPCKLPD  Y5, Y4, Y12
	VUNPCKHPD  Y5, Y4, Y13
	VUNPCKLPD  Y7, Y6, Y14
	VUNPCKHPD  Y7, Y6, Y15
	VPERM2F128 $0x20, Y10, Y8, Y0  // kk+0, rows 0-3
	VPERM2F128 $0x20, Y14, Y12, Y1 // kk+0, rows 4-7
	VPERM2F128 $0x20, Y11, Y9, Y2  // kk+1
	VPERM2F128 $0x20, Y15, Y13, Y3
	VPERM2F128 $0x31, Y10, Y8, Y4  // kk+2
	VPERM2F128 $0x31, Y14, Y12, Y5
	VPERM2F128 $0x31, Y11, Y9, Y6  // kk+3
	VPERM2F128 $0x31, Y15, Y13, Y7
	VMOVUPD    Y0, (DI)
	VMOVUPD    Y1, 32(DI)
	VMOVUPD    Y2, 64(DI)
	VMOVUPD    Y3, 96(DI)
	VMOVUPD    Y4, 128(DI)
	VMOVUPD    Y5, 160(DI)
	VMOVUPD    Y6, 192(DI)
	VMOVUPD    Y7, 224(DI)
	ADDQ       $32, SI
	ADDQ       $256, DI
	SUBQ       $4, CX
	JGE        quad

tail:
	ADDQ $4, CX
	JLE  done

one:
	MOVQ (SI), AX
	MOVQ AX, (DI)
	MOVQ (SI)(R8*1), AX
	MOVQ AX, 8(DI)
	MOVQ (SI)(R8*2), AX
	MOVQ AX, 16(DI)
	MOVQ (SI)(R9*1), AX
	MOVQ AX, 24(DI)
	MOVQ (SI)(R8*4), AX
	MOVQ AX, 32(DI)
	MOVQ (SI)(R10*1), AX
	MOVQ AX, 40(DI)
	MOVQ (SI)(R9*2), AX
	MOVQ AX, 48(DI)
	MOVQ (SI)(R11*1), AX
	MOVQ AX, 56(DI)
	ADDQ $8, SI
	ADDQ $64, DI
	DECQ CX
	JNZ  one

done:
	VZEROUPPER
	RET
