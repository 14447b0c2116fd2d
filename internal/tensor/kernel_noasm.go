//go:build !amd64

package tensor

// hasSIMD is false where no assembly kernel exists: every product runs
// through the portable kernel and the stubs below are never reached.
const hasSIMD = false

func gemmKernel4x8(k int, a *float64, ars, aks int, b *float64, bks int, c *float64, crs int) {
	panic("tensor: no SIMD kernel on this architecture")
}

func packNT8(dst, src *float64, stride, k int) {
	panic("tensor: no SIMD kernel on this architecture")
}
