// Package hostinfo reports the execution-host facts benchmark records carry:
// Go version, GOMAXPROCS, CPU count, CPU model and the GEMM micro-kernel the
// process selected. Every benchmark provenance line embeds these so numbers
// from a 1-core CI container, or from a host whose CPU fell back to the
// portable kernel, can never be confused with another run of the same
// benchmark.
package hostinfo

import (
	"fmt"
	"os"
	"runtime"
	"strings"

	"dapple/internal/tensor"
)

// CPUModel returns the host CPU model string from /proc/cpuinfo, or the
// architecture name when that is unavailable (non-Linux hosts).
func CPUModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				if _, v, ok := strings.Cut(rest, ":"); ok {
					return strings.TrimSpace(v)
				}
			}
		}
	}
	return runtime.GOARCH
}

// Summary returns the one-line host description benchmark output prints and
// benchmark records quote.
func Summary() string {
	return fmt.Sprintf("%s, GOMAXPROCS=%d, %d CPUs, %s, gemm kernel %s",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), CPUModel(), tensor.KernelName())
}
