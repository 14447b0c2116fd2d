//go:build !amd64.v3 && !amd64.v4 && !arm64

package planner

// exactFloats reports that this build computes without fused multiply-add,
// so the latencies pinned by TestPlanZooGolden hold bit for bit (the split
// matches internal/tensor/fma_off.go).
const exactFloats = true
