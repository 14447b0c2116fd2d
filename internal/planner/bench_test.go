package planner

import (
	"testing"

	"dapple/internal/hardware"
	"dapple/internal/model"
)

// BenchmarkPlannerSearch measures one full planner run on the hierarchical
// 2x8 topology (the Table V inner loop).
func BenchmarkPlannerSearch(b *testing.B) {
	m := model.GNMT16()
	c := hardware.ConfigA(2)
	for i := 0; i < b.N; i++ {
		if _, err := Plan(m, c, Options{PruneSlack: 1.3, Finalists: 8}); err != nil {
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
		r, err := Plan(m, c, Options{PruneSlack: 1.3, Finalists: 8, Workers: workers})
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

// benchFlat8 runs the GNMT-16 search on a flat 8-device cluster (the
// hierarchical 2x8 exhaustive space takes ~15 s per run).
func benchFlat8(b *testing.B, noPrune bool) {
	m := model.GNMT16()
	c := hardware.ConfigB(8)
	for i := 0; i < b.N; i++ {
		if _, err := Plan(m, c, Options{PruneSlack: 1.3, Finalists: 8, NoPrune: noPrune}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlannerExhaustive measures the search with pruning disabled: the
// denominator of the branch-and-bound speedup.
func BenchmarkPlannerExhaustive(b *testing.B) { benchFlat8(b, true) }

// BenchmarkPlannerPruned is BenchmarkPlannerExhaustive with pruning on: the
// numerator of the branch-and-bound speedup.
func BenchmarkPlannerPruned(b *testing.B) { benchFlat8(b, false) }
