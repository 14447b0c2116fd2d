package strategy

import (
	"context"
	"slices"
	"strings"
	"testing"

	"dapple/internal/core"
	"dapple/internal/hardware"
	"dapple/internal/model"
	"dapple/internal/planner"
	"dapple/internal/schedule"
)

// twoStagePlan builds a 2-stage straight pipeline over a 2-device flat
// cluster with the given per-device memory budget.
func twoStagePlan(mem int64) *core.Plan {
	m := model.Synthetic(8, 1e-3, 1<<20, 256<<20, 1<<20) // 256 MiB stored per layer
	c := hardware.ConfigB(2)
	c.DeviceMemory = mem
	p := &core.Plan{
		Model: m, Cluster: c, GBS: 8,
		Stages: []core.Stage{
			{Lo: 0, Hi: 4, Devices: []hardware.DeviceID{0}},
			{Lo: 4, Hi: 8, Devices: []hardware.DeviceID{1}},
		},
	}
	p.MicroBatch = core.ChooseMicroBatch(m, p.GBS)
	return p
}

// TestEvaluateRecomputeFallback: when the plain schedule overflows device
// memory but the re-computing one fits, Evaluate reports NeedsRecompute; when
// nothing fits, it errors; when memory is ample, no re-computation is used.
func TestEvaluateRecomputeFallback(t *testing.T) {
	ctx := context.Background()

	plain, err := Evaluate(ctx, "test", twoStagePlan(1<<40), schedule.GPipe, planner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if plain.NeedsRecompute {
		t.Fatal("ample memory still triggered re-computation")
	}
	if plain.Latency <= 0 || plain.Speedup <= 0 || plain.Strategy != "test" {
		t.Fatalf("degenerate result %+v", plain)
	}

	// The GPipe flood retains all M=8 micro-batches of 4 layers x 256 MiB
	// (8 GiB on stage 0); a 3 GiB budget overflows plainly but fits
	// re-computation's footprint of boundary stashes plus two live
	// micro-batches — two, not one, because backward m rematerializes at the
	// instant backward m+1 frees, and allocations count before frees at
	// equal timestamps.
	rc, err := Evaluate(ctx, "test", twoStagePlan(3<<30), schedule.GPipe, planner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rc.NeedsRecompute {
		t.Fatal("tight memory did not trigger re-computation")
	}
	if rc.Latency <= plain.Latency {
		t.Fatalf("re-computation did not cost time: %.6f vs %.6f", rc.Latency, plain.Latency)
	}

	if _, err := Evaluate(ctx, "test", twoStagePlan(1<<20), schedule.GPipe, planner.Options{}); err == nil ||
		!strings.Contains(err.Error(), "overflows device memory") {
		t.Fatalf("infeasible memory produced %v, want overflow error", err)
	}
}

// TestRegistry pins the strategy table: exactly these names, sorted, each
// with a description and a Plan; an unknown name misses.
func TestRegistry(t *testing.T) {
	want := []string{"dapple", "dp", "gpipe", "pipedream", "straight"}
	if got := Names(); !slices.Equal(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for _, name := range want {
		s, ok := Lookup(name)
		if !ok || s.Name != name {
			t.Fatalf("Lookup(%q) = %q, %v", name, s.Name, ok)
		}
		if s.Describe == "" || s.Plan == nil {
			t.Errorf("strategy %q has no description or no Plan", name)
		}
	}
	if _, ok := Lookup("no-such"); ok {
		t.Fatal("Lookup of an unknown name succeeded")
	}
}
