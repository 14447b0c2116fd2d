package dapple

import (
	"context"
	"testing"

	"dapple/internal/core"
)

// TestQuickstartFlow exercises the public facade end to end: zoo model ->
// plan -> simulate.
func TestQuickstartFlow(t *testing.T) {
	m := ModelByName("BERT-48")
	if m == nil {
		t.Fatal("zoo missing BERT-48")
	}
	ctx := context.Background()
	eng, err := NewEngine(WithCluster(ConfigA(2)), WithPlanOptions(PlanOptions{PruneSlack: 1.2, Finalists: 6}))
	if err != nil {
		t.Fatal(err)
	}
	pr, err := eng.Plan(ctx, m)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Plan.Kind() == core.KindDP {
		t.Fatalf("BERT-48 on config A should pipeline, got %v", pr.Plan)
	}
	res, err := eng.Simulate(ctx, pr.Plan, ScheduleOptions{Policy: DapplePA, Recompute: pr.NeedsRecompute})
	if err != nil {
		t.Fatal(err)
	}
	if res.OOM {
		t.Fatalf("planned strategy OOMs: %+v", res)
	}
	if res.IterTime <= 0 || res.Throughput() <= 0 {
		t.Fatalf("degenerate simulation: %+v", res)
	}
}

func TestZooComplete(t *testing.T) {
	if len(Zoo()) != 6 {
		t.Fatalf("zoo has %d models, want 6", len(Zoo()))
	}
	for _, m := range Zoo() {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
	}
}
