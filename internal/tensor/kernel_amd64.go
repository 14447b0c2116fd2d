package tensor

// Assembly entry points (kernel_amd64.s). None of them allocates, blocks or
// calls back into Go, and each call is micro-tile sized.

// hasSIMD reports whether this host can run the AVX2 kernels: the CPU has
// AVX2 and the OS saves YMM state.
var hasSIMD = cpuHasAVX2()

func cpuHasAVX2() bool

//go:noescape
func gemmKernel4x8(k int, a *float64, ars, aks int, b *float64, bks int, c *float64, crs int)

//go:noescape
func packNT8(dst, src *float64, stride, k int)
