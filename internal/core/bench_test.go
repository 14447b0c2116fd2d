package core_test

import (
	"testing"

	"dapple/internal/baselines"
	"dapple/internal/core"
	"dapple/internal/hardware"
	"dapple/internal/model"
)

// BenchmarkLatencyModel measures the analytic Eq. (1)-(2) evaluation the
// planner calls per candidate.
func BenchmarkLatencyModel(b *testing.B) {
	m := model.BERT48()
	c := hardware.ConfigA(2)
	p := baselines.GPipePlan(m, c, 64, 2)
	p.Stages[0].Devices = c.Devices()[:8]
	p.Stages[1].Devices = c.Devices()[8:]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.Latency()
	}
}

// BenchmarkCrossStageModel measures the NIC-bottleneck transfer model on the
// 8:8 hierarchical layout.
func BenchmarkCrossStageModel(b *testing.B) {
	c := hardware.ConfigA(2)
	m := model.BERT48()
	plan := &core.Plan{Model: m, Cluster: c, GBS: 64, MicroBatch: 2,
		Stages: []core.Stage{
			{Lo: 0, Hi: 24, Devices: c.Devices()[:8]},
			{Lo: 24, Hi: 48, Devices: c.Devices()[8:]},
		}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = plan.CrossStageTime(0)
	}
}
