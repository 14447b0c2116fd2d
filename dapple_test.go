package dapple

import (
	"context"
	"testing"

	"dapple/internal/core"
	"dapple/internal/planner"
	"dapple/internal/profile"
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

// TestProfileToPlan profiles a custom architecture and plans it.
func TestProfileToPlan(t *testing.T) {
	arch := Arch{
		Name: "custom-transformer",
		Layers: []LayerSpec{
			profile.Embedding{Name: "embed", Vocab: 32000, Hidden: 512, SeqLen: 128},
		},
		DefaultGBS: 64,
	}
	for i := 0; i < 12; i++ {
		arch.Layers = append(arch.Layers, profile.Transformer{
			Hidden: 512, Heads: 8, SeqLen: 128,
		})
	}
	m, err := ProfileArch(arch, 4)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumLayers() != 13 {
		t.Fatalf("profiled %d layers", m.NumLayers())
	}
	pr, err := planner.PlanContext(context.Background(), m, ConfigB(4), PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := pr.Plan.Validate(); err != nil {
		t.Fatal(err)
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
