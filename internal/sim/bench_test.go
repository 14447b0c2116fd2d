package sim_test

import (
	"math/rand"
	"testing"

	"dapple/internal/baselines"
	"dapple/internal/hardware"
	"dapple/internal/model"
	"dapple/internal/schedule"
	"dapple/internal/sim"
)

// BenchmarkSimEngine measures the raw engine on a synthetic 10k-task graph.
func BenchmarkSimEngine(b *testing.B) {
	build := func() *sim.Graph {
		g := sim.NewGraph()
		rng := rand.New(rand.NewSource(1))
		var ids []sim.TaskID
		for i := 0; i < 10000; i++ {
			id := g.Add(sim.Task{Resource: g.Resource(string(rune('a' + i%16))), Duration: rng.Float64()})
			if i > 0 {
				g.AddDep(id, ids[rng.Intn(i)])
			}
			ids = append(ids, id)
		}
		return g
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g := build()
		b.StartTimer()
		g.Run()
	}
}

// floodGraph expands one iteration of an 8-stage BERT-48 pipeline with M=512
// micro-batches — an O(stages x M) task flood of ~15.4k tasks — for the
// simulator-only benchmarks: the graph is built once, outside the timer, and
// executed repeatedly.
func floodGraph(b *testing.B, pol schedule.Policy) *sim.Graph {
	b.Helper()
	m := model.BERT48()
	c := hardware.ConfigB(8)
	p := baselines.GPipePlan(m, c, 512*m.ProfileBatch, 8)
	g, err := schedule.BuildGraph(p, schedule.Options{Policy: pol, Recompute: true, M: 512, MemLimit: -1})
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// benchFlood runs one engine over the flood graph of pol.
func benchFlood(b *testing.B, pol schedule.Policy, run func(*sim.Graph) *sim.Result) {
	g := floodGraph(b, pol)
	b.ResetTimer()
	b.ReportMetric(float64(g.NumTasks()), "tasks")
	for i := 0; i < b.N; i++ {
		run(g)
	}
}

// BenchmarkSimGPipeFlood measures the event-driven engine alone on the GPipe
// flood schedule (every micro-batch in flight, the engine's worst case).
func BenchmarkSimGPipeFlood(b *testing.B) { benchFlood(b, schedule.GPipe, (*sim.Graph).Run) }

// BenchmarkSimGPipeFloodReference is BenchmarkSimGPipeFlood on the test-only
// linear-scan reference engine: the before/after pair of the engine rewrite.
func BenchmarkSimGPipeFloodReference(b *testing.B) {
	benchFlood(b, schedule.GPipe, (*sim.Graph).RunReference)
}

// BenchmarkSimDapplePA measures the event-driven engine alone on the DAPPLE
// early-backward schedule of the same pipeline.
func BenchmarkSimDapplePA(b *testing.B) { benchFlood(b, schedule.DapplePA, (*sim.Graph).Run) }

// BenchmarkSimDapplePAReference is BenchmarkSimDapplePA on the reference
// engine.
func BenchmarkSimDapplePAReference(b *testing.B) {
	benchFlood(b, schedule.DapplePA, (*sim.Graph).RunReference)
}
