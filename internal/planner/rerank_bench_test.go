package planner

import (
	"context"
	"testing"

	"dapple/internal/hardware"
	"dapple/internal/model"
)

// benchRerank measures finalize — the simulator re-ranking of the analytic
// finalists — at a fixed worker count. The search runs once outside the
// timer; finalize only reads its candidate table, so timing it repeatedly is
// sound. Sequential (workers=1) and parallel (workers=8) pick identical
// plans by construction; on multi-core hosts the parallel pass spreads the K
// finalist simulations across cores.
func benchRerank(b *testing.B, workers int) {
	b.Helper()
	m := model.GNMT16()
	c := hardware.ConfigA(2)
	opts := Options{PruneSlack: 1.3, Finalists: 8, Workers: workers}
	s := newSearch(context.Background(), m, c, opts.Normalize(m.DefaultGBS))
	s.run()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.finalize(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFinalistRerank measures sequential finalist re-ranking.
func BenchmarkFinalistRerank(b *testing.B) { benchRerank(b, 1) }

// BenchmarkFinalistRerankParallel8 measures the same re-ranking fanned out
// over 8 workers.
func BenchmarkFinalistRerankParallel8(b *testing.B) { benchRerank(b, 8) }
