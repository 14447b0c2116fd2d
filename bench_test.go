package dapple

// One benchmark per table and figure of the paper's evaluation (§VI), each
// regenerating the experiment through the same generators cmd/dapple-bench
// uses (Quick mode trims the sweep sizes, not the logic), plus component
// micro-benchmarks for the planner, the latency model, the discrete-event
// engine and the GEMM kernel (BenchmarkExecutePlan in internal/train and
// BenchmarkRingAllReduce in internal/transport cover the runtime).
//
//	go test -bench=. -benchmem
//	go test -bench=BenchmarkTable6 -v

import (
	"context"
	"math/rand"
	"testing"

	"dapple/internal/baselines"
	"dapple/internal/core"
	"dapple/internal/experiments"
	"dapple/internal/hardware"
	"dapple/internal/model"
	"dapple/internal/planner"
	"dapple/internal/schedule"
	"dapple/internal/sim"
	"dapple/internal/tensor"
)

// runExperiment drives one generator and records its row count.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	g := experiments.ByID(id)
	if g == nil {
		b.Fatalf("unknown experiment %s", id)
	}
	opts := experiments.Options{Quick: true}
	var rows int
	for i := 0; i < b.N; i++ {
		rep := g.Run(context.Background(), opts)
		rows = len(rep.Rows)
	}
	b.ReportMetric(float64(rows), "rows")
}

func BenchmarkTable1(b *testing.B) { runExperiment(b, "table1") }
func BenchmarkTable2(b *testing.B) { runExperiment(b, "table2") }
func BenchmarkTable3(b *testing.B) { runExperiment(b, "table3") }
func BenchmarkTable4(b *testing.B) { runExperiment(b, "table4") }
func BenchmarkTable5(b *testing.B) { runExperiment(b, "table5") }
func BenchmarkTable6(b *testing.B) { runExperiment(b, "table6") }
func BenchmarkTable7(b *testing.B) { runExperiment(b, "table7") }
func BenchmarkTable8(b *testing.B) { runExperiment(b, "table8") }
func BenchmarkFig3(b *testing.B)   { runExperiment(b, "fig3") }
func BenchmarkFig4(b *testing.B)   { runExperiment(b, "fig4") }
func BenchmarkFig7(b *testing.B)   { runExperiment(b, "fig7") }
func BenchmarkFig8(b *testing.B)   { runExperiment(b, "fig8") }
func BenchmarkFig12(b *testing.B)  { runExperiment(b, "fig12") }
func BenchmarkFig13(b *testing.B)  { runExperiment(b, "fig13") }
func BenchmarkFig14(b *testing.B)  { runExperiment(b, "fig14") }

// ---- component micro-benchmarks ----

// BenchmarkPlannerSearch measures one full planner run on the hierarchical
// 2x8 topology (the Table V inner loop).
func BenchmarkPlannerSearch(b *testing.B) {
	m := model.GNMT16()
	c := hardware.ConfigA(2)
	for i := 0; i < b.N; i++ {
		if _, err := planner.Plan(m, c, planner.Options{PruneSlack: 1.3, Finalists: 8}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchPlannerWorkers runs the full search for one of the large zoo models
// at a fixed worker count, so sequential (workers=1) and parallel
// (workers=8) wall clocks compare directly — the plans are identical by
// construction, only the fan-out differs.
func benchPlannerWorkers(b *testing.B, m *model.Model, workers int) {
	b.Helper()
	c := hardware.ConfigA(2)
	for i := 0; i < b.N; i++ {
		r, err := planner.Plan(m, c, planner.Options{PruneSlack: 1.3, Finalists: 8, Workers: workers})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(r.Explored), "plans")
		}
	}
}

func BenchmarkPlannerBERT48Sequential(b *testing.B) { benchPlannerWorkers(b, model.BERT48(), 1) }
func BenchmarkPlannerBERT48Parallel8(b *testing.B)  { benchPlannerWorkers(b, model.BERT48(), 8) }
func BenchmarkPlannerXLNet36Sequential(b *testing.B) {
	benchPlannerWorkers(b, model.XLNet36(), 1)
}
func BenchmarkPlannerXLNet36Parallel8(b *testing.B) { benchPlannerWorkers(b, model.XLNet36(), 8) }

// BenchmarkPlannerExhaustive measures the search with pruning disabled on a
// flat 8-device cluster (the hierarchical 2x8 exhaustive space takes ~15 s
// per run): the denominator of the branch-and-bound speedup in CHANGES.md.
func BenchmarkPlannerExhaustive(b *testing.B) {
	m := model.GNMT16()
	c := hardware.ConfigB(8)
	for i := 0; i < b.N; i++ {
		if _, err := planner.Plan(m, c, planner.Options{PruneSlack: 1.3, Finalists: 8, NoPrune: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlannerPruned is BenchmarkPlannerExhaustive with pruning on: the
// numerator of the branch-and-bound speedup.
func BenchmarkPlannerPruned(b *testing.B) {
	m := model.GNMT16()
	c := hardware.ConfigB(8)
	for i := 0; i < b.N; i++ {
		if _, err := planner.Plan(m, c, planner.Options{PruneSlack: 1.3, Finalists: 8}); err != nil {
			b.Fatal(err)
		}
	}
}

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

// BenchmarkSimGPipeFlood measures the event-driven engine alone on the GPipe
// flood schedule (every micro-batch in flight, the engine's worst case).
func BenchmarkSimGPipeFlood(b *testing.B) {
	g := floodGraph(b, schedule.GPipe)
	b.ResetTimer()
	b.ReportMetric(float64(g.NumTasks()), "tasks")
	for i := 0; i < b.N; i++ {
		g.Run()
	}
}

// BenchmarkSimGPipeFloodReference is BenchmarkSimGPipeFlood on the
// pre-rewrite linear-scan engine: the before/after pair for BENCH_sim.json.
func BenchmarkSimGPipeFloodReference(b *testing.B) {
	g := floodGraph(b, schedule.GPipe)
	b.ResetTimer()
	b.ReportMetric(float64(g.NumTasks()), "tasks")
	for i := 0; i < b.N; i++ {
		g.RunReference()
	}
}

// BenchmarkSimDapplePA measures the event-driven engine alone on the DAPPLE
// early-backward schedule of the same pipeline.
func BenchmarkSimDapplePA(b *testing.B) {
	g := floodGraph(b, schedule.DapplePA)
	b.ResetTimer()
	b.ReportMetric(float64(g.NumTasks()), "tasks")
	for i := 0; i < b.N; i++ {
		g.Run()
	}
}

// BenchmarkSimDapplePAReference is BenchmarkSimDapplePA on the pre-rewrite
// linear-scan engine.
func BenchmarkSimDapplePAReference(b *testing.B) {
	g := floodGraph(b, schedule.DapplePA)
	b.ResetTimer()
	b.ReportMetric(float64(g.NumTasks()), "tasks")
	for i := 0; i < b.N; i++ {
		g.RunReference()
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

// BenchmarkMatMul measures the cache-blocked, pool-parallel matmul (see the
// BenchmarkGEMM family in internal/tensor for the full kernel suite).
func BenchmarkMatMul(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := tensor.New(256, 256)
	y := tensor.New(256, 256)
	x.Randomize(rng, 1)
	y.Randomize(rng, 1)
	b.SetBytes(256 * 256 * 256 * 2 * 8 / (1 << 10)) // rough FLOP proxy
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tensor.MatMul(x, y)
	}
}

// BenchmarkPipeDreamPlanner measures the baseline planner's DP.
func BenchmarkPipeDreamPlanner(b *testing.B) {
	m := model.BERT48()
	c := hardware.ConfigA(2)
	for i := 0; i < b.N; i++ {
		_ = baselines.PipeDream(m, c, 128)
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
