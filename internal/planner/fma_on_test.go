//go:build amd64.v3 || amd64.v4 || arm64

package planner

// exactFloats reports that the compiler may fuse multiply-adds on this
// build, so TestPlanZooGolden compares latencies to a relative tolerance
// (the split matches internal/tensor/fma_on.go).
const exactFloats = false
