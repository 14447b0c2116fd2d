package schedule_test

import (
	"testing"

	"dapple/internal/baselines"
	"dapple/internal/hardware"
	"dapple/internal/model"
	"dapple/internal/schedule"
)

// BenchmarkScheduleSim measures one discrete-event iteration of a 4-stage,
// 32-micro-batch pipeline (the planner's re-ranking inner loop).
func BenchmarkScheduleSim(b *testing.B) {
	m := model.BERT48()
	c := hardware.ConfigB(4)
	p := baselines.GPipePlan(m, c, 64, 4)
	for i := 0; i < b.N; i++ {
		if _, err := schedule.Run(p, schedule.Options{Policy: schedule.DapplePA, MemLimit: -1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweeperResim measures one re-simulation through a Sweeper reusing
// the task-graph buffers across the policy sweep (the Table VI inner loop),
// against BenchmarkScheduleSim's build-from-scratch path.
func BenchmarkSweeperResim(b *testing.B) {
	m := model.BERT48()
	c := hardware.ConfigB(4)
	p := baselines.GPipePlan(m, c, 64, 4)
	sw, err := schedule.NewSweeper(p)
	if err != nil {
		b.Fatal(err)
	}
	pols := []schedule.Policy{schedule.DapplePA, schedule.GPipe, schedule.DapplePB}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sw.Run(schedule.Options{Policy: pols[i%len(pols)], MemLimit: -1}); err != nil {
			b.Fatal(err)
		}
	}
}
