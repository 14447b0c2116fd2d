package main

import (
	"bytes"
	"math"
	"os"
	"regexp"
	"testing"

	"dapple/internal/sim"
	"dapple/internal/train"
)

func testRun(t *testing.T) *run {
	t.Helper()
	return &run{workload: "test", seed: 7, seconds: 0.01, outDir: t.TempDir(), metrics: map[string]metric{}}
}

// TestTailPercentile pins the reporting rule: the highest ladder percentile
// with at least ten samples beyond it, by nearest rank.
func TestTailPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending input: the rule must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n          int
		pct, value float64
	}{
		{1, 50, 1},
		{19, 50, 10},   // 25 % of 19 is fewer than ten samples
		{40, 75, 30},   // rank 30 leaves exactly ten beyond
		{99, 75, 75},   // p90 would leave nine
		{100, 90, 90},  // p90 leaves exactly ten
		{200, 95, 190}, // p95 leaves ten, p99 two
		{1000, 99, 990},
		{10000, 99.9, 9990},
	} {
		pct, value := tailPercentile(seq(tc.n))
		if pct != tc.pct || value != tc.value {
			t.Errorf("n=%d: got p%v = %v, want p%v = %v", tc.n, pct, value, tc.pct, tc.value)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// TestSelfTime checks that a span's self time is its duration minus the
// union of its children's cover, clipped to the parent, and that the layer
// ranking attributes it by package prefix.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{Name: "train.Executor.Step", Parent: -1, Start: 0, End: 10},
		{Name: "nn.stage_forward", Parent: 0, Lane: 1, Start: 1, End: 4},
		{Name: "nn.stage_backward", Parent: 0, Lane: 2, Start: 3, End: 6}, // overlaps the first child
		{Name: "train.grad_sync", Parent: 0, Lane: 1, Start: 8, End: 12},  // sticks out of the parent
		{Name: "tensor.MatMulInto", Parent: 1, Lane: 1, Start: 1, End: 2}, // grandchild
		{Name: "planner.Engine.Plan", Parent: -1, Start: 20, End: 21},     // another operation
	}
	want := []float64{10 - 5 - 2, 3 - 1, 3, 4, 1, 1}
	got := selfTimes(spans)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("span %d (%s): self %v, want %v", i, spans[i].Name, got[i], want[i])
		}
	}
	rank := layerSelf(spans, 0, "train.Executor.Step")
	if len(rank) != 3 || rank[0].Layer != "train" || rank[0].Seconds != 7 || rank[1].Layer != "nn" || rank[1].Seconds != 5 {
		t.Errorf("layer ranking %+v, want train 7 then nn 5 then tensor 1", rank)
	}
}

// syntheticStep is a two-device step: device 0 computes 6 of 10 time units,
// device 1 computes 3 and spends 2 in an all-reduce span of which 1.5 is
// exposed wait; the executor's wall is 10.5 and the harness saw 11.
func syntheticStep() (*train.ExecResult, float64) {
	tr := &sim.Result{
		Resources: []string{"s0.d0", "s1.d1"},
		Makespan:  10,
		Spans: []sim.Span{
			{Kind: "fwd", Resource: 0, Start: 0, End: 2},
			{Kind: "fwd", Resource: 1, Start: 2, End: 3},
			{Kind: "bwd", Resource: 1, Start: 3, End: 5},
			{Kind: "allreduce", Resource: 1, Start: 5, End: 7},
			{Kind: "bwd", Resource: 0, Start: 5, End: 9},
			{Kind: "allreduce", Resource: 0, Start: 9, End: 10},
		},
	}
	return &train.ExecResult{Trace: tr, WallTime: 10.5, CommWaitSeconds: []float64{0, 1.5}}, 11
}

// TestBudgetSumsToWall checks the budget columns on a synthetic trace and
// that the sum-to-wall gap is what the uncovered executor tail makes it.
func TestBudgetSumsToWall(t *testing.T) {
	res, wall := syntheticStep()
	rows, meanWall := budget([]*train.ExecResult{res, res}, []float64{wall, wall})
	if meanWall != wall || len(rows) != 2 {
		t.Fatalf("wall %v rows %d", meanWall, len(rows))
	}
	want := []budgetRow{
		{Device: "s0.d0", Fwd: 2, Bwd: 4, AllReduce: 1, SyncWait: 0, LinkWait: 3, Harness: 0.5, Sum: 10.5},
		{Device: "s1.d1", Fwd: 1, Bwd: 2, AllReduce: 0.5, SyncWait: 1.5, LinkWait: 5, Harness: 0.5, Sum: 10.5},
	}
	for i := range want {
		if rows[i] != want[i] {
			t.Errorf("row %d: got %+v, want %+v", i, rows[i], want[i])
		}
	}
	// 0.5 of 11 is not attributed (WallTime - Makespan): inside the limit.
	if gap := budgetGap(rows, meanWall); math.Abs(gap-0.5/11) > 1e-12 || gap > 0.10 {
		t.Errorf("gap %v, want %v and within 0.10", gap, 0.5/11)
	}
	// A step whose wall the columns do not explain must exceed the limit.
	if gap := budgetGap(rows, 2*meanWall); gap <= 0.10 {
		t.Errorf("gap %v against a doubled wall, want > 0.10", gap)
	}
}

// TestWorkloadBuildersSmoke drives five steps of every training workload's
// builder (one churn cycle for session_recover, the two cheapest pairs for
// plan_zoo), so tier-1 catches API drift without running the benchmark.
func TestWorkloadBuildersSmoke(t *testing.T) {
	for _, s := range []shape{pipeCompute, pipeGPipeRC(), hybridAllreduce, stepOverhead} {
		t.Run(s.name, func(t *testing.T) {
			r := testRun(t)
			_, st, _, _, err := setUp(s, r.seed, 1, func(fx *fixture) (stepper, error) { return openInproc(fx, true) })
			if err != nil {
				t.Fatal(err)
			}
			if steps, _ := r.timedSteps(st, warmups, 2, 0); len(steps) != 2 || r.failed != 0 {
				t.Fatalf("%d steps, failures %v", len(steps), r.failures)
			}
		})
	}
	t.Run("session_tcp", func(t *testing.T) {
		r := testRun(t)
		fx, st, warm, _, err := setUp(sessionTCP, r.seed, 1, openSessionTCP)
		if err != nil {
			t.Fatal(err)
		}
		steps, _ := r.timedSteps(st, warmups, 2, 0)
		if err := st.close(); err != nil {
			t.Fatal(err)
		}
		if _, err := r.checkWarmups(fx, warm); err != nil || len(steps) != 2 || r.failed != 0 {
			t.Fatalf("%d steps, err %v, failures %v", len(steps), err, r.failures)
		}
	})
	t.Run("session_recover", func(t *testing.T) {
		r := testRun(t)
		r.tr = newTracer()
		fx, err := sessionRecover.build(r.seed)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fx.sequentialLosses(cycleSteps)
		if err != nil {
			t.Fatal(err)
		}
		cy, ok := r.recoverCycle(fx, 0)
		r.checkCycle(cy, want)
		if !ok || r.failed != 0 || len(cy.stepS) != cycleSteps || cy.recoverS <= 0 {
			t.Fatalf("cycle ok=%v steps=%d recover=%v failures %v", ok, len(cy.stepS), cy.recoverS, r.failures)
		}
		if rank := layerSelf(r.tr.spans, 0, "dist.recover_cycle"); len(rank) == 0 || rank[0].Layer != "dist" {
			t.Fatalf("cycle trace ranking %+v", rank)
		}
	})
	t.Run("plan_zoo", func(t *testing.T) {
		r := testRun(t)
		zoo := zooPairs()
		if len(zoo) != 12 {
			t.Fatalf("%d pairs, want 12", len(zoo))
		}
		pairs := []pair{zoo[6], zoo[9]} // ResNet-50 on config-A(2), VGG-19 on config-B(16)
		a, _, ok := r.planRound(pairs, []int{0, 1}, 0)
		b, _, ok2 := r.planRound(pairs, []int{1, 0}, 1)
		if !ok || !ok2 {
			t.Fatal(r.failures)
		}
		r.checkRound(pairs, b, a)
		if r.failed != 0 || plannedIterS(a) != plannedIterS(b) || plannedIterS(a) <= 0 {
			t.Fatalf("failures %v, planned %v vs %v", r.failures, plannedIterS(a), plannedIterS(b))
		}
	})
}

// TestManifest checks the declared benchmark against the contract's limits
// and against the BENCHMARK.json checked in at the repository root.
func TestManifest(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(d metricDef) {
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) || seen[d.Name] || (d.Better != "higher" && d.Better != "lower") {
			t.Errorf("bad or repeated metric %+v", d)
		}
		seen[d.Name] = true
	}
	setup := false
	for _, d := range endToEnd {
		check(d)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v", d.Name, d.Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !setup || len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("setup_s declared: %v; %d end-to-end, %d per-layer", setup, len(endToEnd), len(perLayer))
	}
	for _, d := range perLayer {
		check(d)
	}
	if len(workloadWhy) != len(workloads) {
		t.Errorf("%d workloads described, %d defined", len(workloadWhy), len(workloads))
	}
	for _, w := range workloadWhy {
		if _, ok := workloads[w[0]]; !ok || len(w[1]) > 200 || !name.MatchString(w[0]) {
			t.Errorf("workload %q: defined %v, why is %d characters", w[0], ok, len(w[1]))
		}
	}
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json differs from metrics.go; regenerate it with `go run ./benchmark -manifest > BENCHMARK.json`")
	}
}
