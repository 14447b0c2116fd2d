//go:build amd64.v3 || amd64.v4 || arm64

package tensor

import "math"

// fmadd returns acc + a*b with a single rounding (fused multiply-add).
//
// On these build targets (GOAMD64=v3/v4, arm64) math.FMA compiles to one
// branch-free hardware instruction, roughly doubling peak kernel throughput
// over separate multiply+add. Every kernel in this package — the blocked
// GEMM core AND the scalar reference — goes through this one helper, so
// results stay bit-identical between paths within a build. Builds with
// different fmadd definitions (v1 vs v3) legitimately differ in the last
// bits; all in-repo tolerances compare like against like.
func fmadd(a, b, acc float64) float64 { return math.FMA(a, b, acc) }

// fusedFMA reports which fmadd flavour this build uses (see KernelName).
const fusedFMA = true
