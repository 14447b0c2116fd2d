package dapple

// Cross-layer integration tests: the analytic model, the discrete-event
// scheduler and the real goroutine runtime must tell one consistent story.

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"dapple/internal/baselines"
	"dapple/internal/core"
	"dapple/internal/hardware"
	"dapple/internal/model"
	"dapple/internal/nn"
	"dapple/internal/planner"
	"dapple/internal/schedule"
	"dapple/internal/tensor"
	"dapple/internal/train"
)

// straightPlan hand-builds a validated one-device-per-stage plan over net,
// cuts being exclusive layer end indices, the way benchmark/fixtures.go
// builds the plans it executes.
func straightPlan(t *testing.T, net *nn.Network, inDim, rows, m int, cuts []int) *core.Plan {
	t.Helper()
	mod, err := train.ProfileNetwork("integration", net, inDim, rows, rows*m)
	if err != nil {
		t.Fatal(err)
	}
	stages := make([]core.Stage, len(cuts))
	lo := 0
	for i, hi := range cuts {
		stages[i] = core.Stage{Lo: lo, Hi: hi, Devices: []hardware.DeviceID{hardware.DeviceID(i)}}
		lo = hi
	}
	p := &core.Plan{Model: mod, Cluster: hardware.ConfigB(len(cuts)), Stages: stages, GBS: rows * m, MicroBatch: rows}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestWarmupDepthMatchesRealRuntime: the simulated DAPPLE schedule's warmup
// depth K_i and the real executor's peak activation stash must agree — both
// implement K_i = S - i early-backward scheduling.
func TestWarmupDepthMatchesRealRuntime(t *testing.T) {
	const stages, m, rows = 3, 9, 4

	// Simulated side: uniform 6-layer model, 3-stage straight pipeline.
	mod := model.Synthetic(6, 1e-3, 1<<20, 4<<20, 1<<20)
	plan := baselines.GPipePlan(mod, hardware.ConfigB(stages), m, stages)
	res, err := schedule.Run(plan, ScheduleOptions{Policy: DapplePA, M: m, MemLimit: -1})
	if err != nil {
		t.Fatal(err)
	}

	// Real side: a 9-layer MLP (Dense/ReLU alternation) in 3 equal stages.
	master := nn.MLP([]int{8, 16, 16, 16, 16, 4}, 7)
	rng := rand.New(rand.NewSource(1))
	micros := make([]train.Batch, m)
	for i := range micros {
		x := tensor.New(rows, 8)
		x.Randomize(rng, 1)
		micros[i] = train.Batch{X: x, Y: []int{0, 1, 2, 3}}
	}
	ex, err := train.NewExecutor(straightPlan(t, master, 8, rows, m, []int{3, 6, 9}),
		master, func() nn.Optimizer { return nn.SGD{LR: 0} }, ExecOptions{Policy: DapplePA})
	if err != nil {
		t.Fatal(err)
	}
	execRes, err := ex.StepContext(context.Background(), micros)
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < stages; i++ {
		if got, want := res.PerStage[i].Warmup, stages-i; got != want {
			t.Fatalf("sim stage %d warmup %d, want %d", i, got, want)
		}
		if got, want := execRes.MaxStash[i], stages-i; got != want {
			t.Fatalf("real stage %d stash %d, want %d", i, got, want)
		}
	}
}

// TestAnalyticTracksSimulation: across the zoo, the analytic Eq. (1)-(2)
// latency of a 2-stage balanced plan stays within 40% of the simulated
// latency — the "approximation works practically well" claim of §IV-A.
func TestAnalyticTracksSimulation(t *testing.T) {
	for _, m := range model.Zoo() {
		c := hardware.ConfigB(2)
		p := baselines.GPipePlan(m, c, m.DefaultGBS, 2)
		res, err := schedule.Run(p, ScheduleOptions{Policy: DapplePA, MemLimit: -1})
		if err != nil {
			t.Fatal(err)
		}
		analytic := p.Latency()
		ratio := res.IterTime / analytic
		if ratio < 0.95 || ratio > 1.4 {
			t.Errorf("%s: sim/analytic = %.2f (sim %.1fms, analytic %.1fms)",
				m.Name, ratio, res.IterTime*1e3, analytic*1e3)
		}
	}
}

// TestSpeedupNeverSuperlinear: no plan the planner emits may beat perfect
// linear scaling, across the whole zoo and all three configs.
func TestSpeedupNeverSuperlinear(t *testing.T) {
	if testing.Short() {
		t.Skip("planner sweep")
	}
	for _, m := range model.Zoo() {
		for _, c := range []Cluster{ConfigA(2), ConfigB(16), ConfigC(16)} {
			pr, err := planner.PlanContext(context.Background(), m, c, PlanOptions{PruneSlack: 1.2, Finalists: 4})
			if err != nil {
				t.Fatalf("%s on %s: %v", m.Name, c.Name, err)
			}
			if pr.Speedup > float64(c.NumDevices())*1.0001 {
				t.Errorf("%s on %s: superlinear %.2fx", m.Name, c.Name, pr.Speedup)
			}
		}
	}
}

// TestPlanJSONRoundTrip serializes a planned strategy and reloads it against
// the same model/cluster.
func TestPlanJSONRoundTrip(t *testing.T) {
	m := model.VGG19()
	c := hardware.ConfigC(4)
	pr, err := planner.PlanContext(context.Background(), m, c, PlanOptions{PruneSlack: 1.2, Finalists: 4})
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(pr.Plan)
	if err != nil {
		t.Fatal(err)
	}
	back, err := core.UnmarshalPlan(data, m, c)
	if err != nil {
		t.Fatal(err)
	}
	if back.SplitString() != pr.Plan.SplitString() || back.ReplicaString() != pr.Plan.ReplicaString() {
		t.Fatalf("round trip changed the plan: %v vs %v", back, pr.Plan)
	}
	if math.Abs(back.Latency()-pr.Plan.Latency()) > 1e-12 {
		t.Fatal("round trip changed the latency")
	}
	// Rebinding against the wrong model must fail.
	if _, err := core.UnmarshalPlan(data, model.BERT48(), c); err == nil {
		t.Fatal("expected model mismatch error")
	}
}

// TestPlanJSONRoundTripSimulatesIdentically: a plan written by -plan-out and
// reloaded via core.UnmarshalPlan must simulate to the exact same iteration
// time — the serialized form carries everything the scheduler consumes (and
// everything the Engine's cache key must distinguish).
func TestPlanJSONRoundTripSimulatesIdentically(t *testing.T) {
	ctx := context.Background()
	m := model.ByName("GNMT-16")
	c := hardware.ConfigB(4)
	eng, err := NewEngine(WithCluster(c), WithPlanOptions(PlanOptions{PruneSlack: 1.2, Finalists: 4}))
	if err != nil {
		t.Fatal(err)
	}
	pr, err := eng.Plan(ctx, m)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.MarshalIndent(pr.Plan, "", "  ") // as cmd/dapple -plan-out writes it
	if err != nil {
		t.Fatal(err)
	}
	back, err := core.UnmarshalPlan(data, m, c)
	if err != nil {
		t.Fatal(err)
	}
	opts := ScheduleOptions{Policy: pr.Policy, Recompute: pr.NeedsRecompute}
	orig, err := eng.Simulate(ctx, pr.Plan, opts)
	if err != nil {
		t.Fatal(err)
	}
	reloaded, err := eng.Simulate(ctx, back, opts)
	if err != nil {
		t.Fatal(err)
	}
	if orig.IterTime != reloaded.IterTime {
		t.Fatalf("round trip changed the simulated iteration time: %.9f vs %.9f",
			orig.IterTime, reloaded.IterTime)
	}
	if orig.MaxPeakMem != reloaded.MaxPeakMem {
		t.Fatalf("round trip changed peak memory: %d vs %d", orig.MaxPeakMem, reloaded.MaxPeakMem)
	}
}

// TestRecomputeEquivalenceEndToEnd: re-computation changes memory and time
// but never the math — simulated memory drops, real gradients stay equal.
func TestRecomputeEquivalenceEndToEnd(t *testing.T) {
	// Simulated side.
	m := model.XLNet36()
	plan := baselines.GPipePlan(m, hardware.ConfigB(2), 16, 2)
	plain, err := schedule.Run(plan, ScheduleOptions{Policy: DapplePA, MemLimit: -1})
	if err != nil {
		t.Fatal(err)
	}
	rc, err := schedule.Run(plan, ScheduleOptions{Policy: DapplePA, Recompute: true, MemLimit: -1})
	if err != nil {
		t.Fatal(err)
	}
	if rc.AvgPeakMem >= plain.AvgPeakMem || rc.IterTime <= plain.IterTime {
		t.Fatalf("recompute: mem %.2f->%.2f GiB, time %.0f->%.0fms",
			plain.AvgPeakMem/(1<<30), rc.AvgPeakMem/(1<<30), plain.IterTime*1e3, rc.IterTime*1e3)
	}

	// Real side.
	master := nn.MLP([]int{6, 12, 6, 3}, 5)
	rng := rand.New(rand.NewSource(3))
	micros := make([]train.Batch, 4)
	for i := range micros {
		x := tensor.New(3, 6)
		x.Randomize(rng, 1)
		micros[i] = train.Batch{X: x, Y: []int{0, 1, 2}}
	}
	p := straightPlan(t, master, 6, 3, len(micros), []int{2, 5})
	run := func(recompute bool) []float64 {
		ex, err := train.NewExecutor(p, master, func() nn.Optimizer { return nn.SGD{LR: 0.1} },
			ExecOptions{Policy: DapplePA, Recompute: recompute})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ex.Step(micros); err != nil {
			t.Fatal(err)
		}
		var ps []float64
		for s := 0; s < ex.NumStages(); s++ {
			for _, p := range ex.StageParams(s, 0) {
				ps = append(ps, p.W.Data...)
			}
		}
		return ps
	}
	a, b := run(false), run(true)
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-12 {
			t.Fatal("re-computation changed the training math")
		}
	}
}

// TestScheduleCompare: under identical partition/M, DAPPLE's iteration time
// stays within 15% of GPipe's (the paper: "the exact same bubble time") while
// using strictly less memory.
func TestScheduleCompare(t *testing.T) {
	for _, name := range []string{"BERT-48", "XLNet-36", "GNMT-16"} {
		m := model.ByName(name)
		plan := baselines.GPipePlan(m, hardware.ConfigB(4), 16*m.ProfileBatch, 4)
		gp, err := schedule.Run(plan, ScheduleOptions{Policy: GPipeSchedule, MemLimit: -1})
		if err != nil {
			t.Fatal(err)
		}
		da, err := schedule.Run(plan, ScheduleOptions{Policy: DapplePA, MemLimit: -1})
		if err != nil {
			t.Fatal(err)
		}
		if da.IterTime > gp.IterTime*1.15 {
			t.Errorf("%s: DAPPLE %.0fms vs GPipe %.0fms (>15%% slower)",
				name, da.IterTime*1e3, gp.IterTime*1e3)
		}
		if da.AvgPeakMem >= gp.AvgPeakMem {
			t.Errorf("%s: DAPPLE memory %.2f GiB not below GPipe %.2f GiB",
				name, da.AvgPeakMem/(1<<30), gp.AvgPeakMem/(1<<30))
		}
	}
}
