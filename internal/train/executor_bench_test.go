package train

import (
	"math/rand"
	"testing"

	"dapple/internal/core"
	"dapple/internal/hardware"
	"dapple/internal/nn"
	"dapple/internal/schedule"
)

// benchSetup builds the runtime benchmark workload — an 11-layer MLP carved
// 3:3:3:2 with 2 replicas per stage on 8 flat devices, M=8 micro-batches of
// 16 rows — shared by BenchmarkExecutePlan and the steady-state allocation
// gates, so both measure the same workload.
func benchSetup(b testing.TB, pol schedule.Policy) (*Executor, []Batch) {
	b.Helper()
	master := nn.MLP([]int{32, 48, 48, 48, 48, 48, 8}, 42) // 11 layers
	const rows, m, inDim = 16, 8, 32
	mod, err := ProfileNetwork("bench-net", master, inDim, rows, rows*m)
	if err != nil {
		b.Fatal(err)
	}
	stages := make([]core.Stage, 4)
	lo, dev := 0, 0
	for i, hi := range []int{3, 6, 9, 11} {
		devs := []hardware.DeviceID{hardware.DeviceID(dev), hardware.DeviceID(dev + 1)}
		dev += 2
		stages[i] = core.Stage{Lo: lo, Hi: hi, Devices: devs}
		lo = hi
	}
	p := &core.Plan{Model: mod, Cluster: hardware.ConfigB(8), Stages: stages, GBS: rows * m, MicroBatch: rows}
	ex, err := NewExecutor(p, master, func() nn.Optimizer { return nn.SGD{LR: 0.01} },
		ExecOptions{Policy: pol})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	proj := NewQuadrantProblem(rng, inDim)
	return ex, QuadrantBatches(rng, proj, m, rows)
}

// BenchmarkExecutePlan measures one really-executed training iteration of a
// replicated 4-stage plan (2x replication per stage, 8 worker goroutines,
// M=8) under both runtime policies, trace recording included — the
// plan-driven runtime's end-to-end hot path.
func BenchmarkExecutePlan(b *testing.B) {
	for _, tc := range []struct {
		name string
		pol  schedule.Policy
	}{
		{"GPipe", schedule.GPipe},
		{"DAPPLE", schedule.DapplePA},
	} {
		b.Run(tc.name, func(b *testing.B) {
			ex, micros := benchSetup(b, tc.pol)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ex.Step(micros); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
