//go:build !amd64.v3 && !amd64.v4 && !arm64

package tensor

// fmadd returns acc + a*b with separate multiply and add roundings.
//
// This is the portable fallback: on baseline amd64 (GOAMD64=v1/v2) the
// math.FMA intrinsic guards every call with a runtime CPU-feature branch,
// which measures SLOWER than plain multiply+add in the packed micro-kernel,
// so the fused form is reserved for builds that guarantee the instruction
// (see fma_on.go). Both definitions keep the one-rounding-order-per-output
// contract the kernels rely on; they just differ in rounding, so the two
// build flavors are not bit-comparable with each other.
func fmadd(a, b, acc float64) float64 { return acc + a*b }

// fusedFMA reports which fmadd flavour this build uses (see KernelName).
const fusedFMA = false
