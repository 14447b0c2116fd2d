package dapple

import (
	"context"
	"errors"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"dapple/internal/strategy"
)

// TestStrategyRegistry pins the strategy table the engine exposes: the
// DAPPLE planner and every baseline, sorted by name, each described; an
// unknown name misses.
func TestStrategyRegistry(t *testing.T) {
	var names []string
	for _, s := range Strategies() {
		names = append(names, s.Name)
		if s.Describe == "" {
			t.Errorf("strategy %q has no description", s.Name)
		}
	}
	if want := []string{"dapple", "dp", "gpipe", "pipedream", "straight"}; !slices.Equal(names, want) {
		t.Fatalf("Strategies() = %v, want %v", names, want)
	}
	if _, ok := strategy.Lookup("no-such"); ok {
		t.Fatal("Lookup of an unknown name succeeded")
	}
}

// TestAllStrategiesShareTheEnginePath: every strategy plans and
// simulates GNMT-16 end-to-end through the same Engine.Plan/Engine.Simulate
// path, returning the common result shape.
func TestAllStrategiesShareTheEnginePath(t *testing.T) {
	ctx := context.Background()
	m := ModelByName("GNMT-16")
	for _, s := range Strategies() {
		eng, err := NewEngine(
			WithCluster(ConfigB(4)),
			WithStrategy(s.Name),
			WithPlanOptions(PlanOptions{PruneSlack: 1.2, Finalists: 4}),
		)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		pr, err := eng.Plan(ctx, m)
		if err != nil {
			t.Fatalf("%s: plan: %v", s.Name, err)
		}
		if pr.Strategy != s.Name {
			t.Errorf("%s: result labeled %q", s.Name, pr.Strategy)
		}
		if err := pr.Plan.Validate(); err != nil {
			t.Errorf("%s: invalid plan: %v", s.Name, err)
		}
		if pr.Latency <= 0 || pr.Speedup <= 0 {
			t.Errorf("%s: degenerate result %+v", s.Name, pr)
		}
		res, err := eng.SimulatePlan(ctx, pr)
		if err != nil {
			t.Fatalf("%s: simulate: %v", s.Name, err)
		}
		if res.IterTime <= 0 || res.Throughput() <= 0 {
			t.Errorf("%s: degenerate simulation %+v", s.Name, res)
		}
	}
}

// TestEnginePlanCache: a repeated identical Plan returns the cached result;
// explicit defaults and a different worker count (which never changes the
// plan) hit the same key, concurrently too; a different GBS is a new key.
func TestEnginePlanCache(t *testing.T) {
	ctx := context.Background()
	eng, err := NewEngine(WithCluster(ConfigB(4)), WithStrategy("gpipe"))
	if err != nil {
		t.Fatal(err)
	}
	m := ModelByName("GNMT-16")

	first, err := eng.Plan(ctx, m)
	if err != nil {
		t.Fatal(err)
	}
	second, err := eng.Plan(ctx, m)
	if err != nil {
		t.Fatal(err)
	}
	// Spelling out the canonical defaults must hit the same key as the
	// implicit zero values.
	third, err := eng.PlanWith(ctx, m, PlanOptions{
		GBS: m.DefaultGBS, MaxStages: 4, PruneSlack: 1.6, Finalists: 24,
	})
	if err != nil {
		t.Fatal(err)
	}
	if first != second || first != third {
		t.Fatal("cache returned a different result value")
	}

	w1, err := eng.PlanWith(ctx, m, PlanOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	w4 := make([]*PlanResult, 8)
	for i := range w4 {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w4[i], _ = eng.PlanWith(ctx, m, PlanOptions{Workers: 4})
		}(i)
	}
	wg.Wait()
	for _, r := range w4 {
		if r != w1 || r != first {
			t.Fatal("a different planner worker count missed the cache")
		}
	}

	// A different GBS is a different key.
	other, err := eng.PlanWith(ctx, m, PlanOptions{GBS: 2 * m.DefaultGBS})
	if err != nil {
		t.Fatal(err)
	}
	if other == first || other.Plan.GBS != 2*m.DefaultGBS {
		t.Fatalf("new GBS served %v from the cache", other.Plan)
	}
}

// TestEnginePlanCancelled: a Plan with an already-cancelled context returns
// promptly with ctx.Err() and caches nothing; a later live-context Plan
// returns a fresh result.
func TestEnginePlanCancelled(t *testing.T) {
	eng, err := NewEngine(WithCluster(ConfigA(2)), WithStrategy("gpipe"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	m := ModelByName("BERT-48")
	start := time.Now()
	_, err = eng.Plan(ctx, m)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	// Locally this returns in microseconds; the loose bound absorbs noisy
	// shared CI runners while still catching a full multi-second search.
	if el := time.Since(start); el > 500*time.Millisecond {
		t.Fatalf("cancelled Plan took %v", el)
	}
	if n := len(eng.cache); n != 0 {
		t.Fatalf("cancelled Plan cached %d entries", n)
	}
	pr, err := eng.Plan(context.Background(), m)
	if err != nil || pr == nil || pr.Plan == nil {
		t.Fatalf("live Plan after a cancelled one: %v, %v", pr, err)
	}
}

// TestEnginePlanDeadline: a deadline landing mid-search stops the planner
// within ~100ms, not after the multi-second search completes.
func TestEnginePlanDeadline(t *testing.T) {
	eng, err := NewEngine(WithCluster(ConfigA(2)))
	if err != nil {
		t.Fatal(err)
	}
	// BERT-48 on config A takes seconds to plan; give it 20ms.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()

	start := time.Now()
	_, err = eng.Plan(ctx, ModelByName("BERT-48"))
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want context.DeadlineExceeded", err)
	}
	// The search aborts within ~30ms of the deadline locally; the loose
	// bound absorbs CI scheduler noise while still distinguishing a prompt
	// abort from the full ~4s search.
	if elapsed > 1*time.Second {
		t.Fatalf("deadline-bounded Plan took %v, want prompt abort after the 20ms deadline", elapsed)
	}
}

// TestEngineSimulateCancelled: the discrete-event scheduler also honors
// context cancellation.
func TestEngineSimulateCancelled(t *testing.T) {
	ctx := context.Background()
	eng, err := NewEngine(WithCluster(ConfigB(4)), WithStrategy("gpipe"))
	if err != nil {
		t.Fatal(err)
	}
	pr, err := eng.Plan(ctx, ModelByName("GNMT-16"))
	if err != nil {
		t.Fatal(err)
	}
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := eng.Simulate(cctx, pr.Plan, ScheduleOptions{Policy: DapplePA}); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// TestEngineSimulateInvalidPlan: hand-built plans fail with errors, not
// panics.
func TestEngineSimulateInvalidPlan(t *testing.T) {
	eng, err := NewEngine(WithCluster(ConfigB(2)))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := eng.Simulate(ctx, nil, ScheduleOptions{}); err == nil {
		t.Fatal("nil plan simulated")
	}
	if _, err := eng.Simulate(ctx, &Plan{}, ScheduleOptions{}); err == nil {
		t.Fatal("model-less plan simulated")
	}
}

// TestEngineOptions: constructor validation; an unknown strategy name errors
// and lists the valid names.
func TestEngineOptions(t *testing.T) {
	if _, err := NewEngine(); err == nil {
		t.Fatal("NewEngine without WithCluster succeeded")
	}
	_, err := NewEngine(WithCluster(ConfigB(2)), WithStrategy("no-such"))
	if err == nil || !strings.Contains(err.Error(), "[dapple dp gpipe pipedream straight]") {
		t.Fatalf("WithStrategy with unknown name: %v, want an error listing the valid names", err)
	}
	if _, err := NewEngine(WithCluster(Cluster{})); err == nil {
		t.Fatal("WithCluster with invalid cluster succeeded")
	}
}
