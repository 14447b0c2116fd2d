package train

import (
	"testing"

	"dapple/internal/core"
	"dapple/internal/hardware"
	"dapple/internal/nn"
	"dapple/internal/schedule"
	"dapple/internal/tensor"
)

// stepAllocBudget is the steady-state allocation ceiling per executed
// iteration of the benchmark fixture (trace recording on). The runtime
// measures 47 allocs per step here (DAPPLE and GPipe) and 33 on the
// wide-layer fixture, at -cpu 1,2,4 and under GOAMD64=v3 alike; the budget
// is the larger measurement plus 25 %, so one new per-micro-batch or
// per-worker allocation on the hot path fails the gate.
const stepAllocBudget = 60

// TestStepSteadyStateAllocBudget is the allocation-regression gate of the
// real runtime: after warm-up, a full plan-driven training iteration — 8
// workers, 4 replicated stages, link traffic, ring all-reduce, span
// recording — must stay under the budget. Skipped under the race detector,
// whose instrumentation changes allocation behavior.
func TestStepSteadyStateAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, tc := range []struct {
		name string
		pol  schedule.Policy
	}{
		{"GPipe", schedule.GPipe},
		{"DAPPLE", schedule.DapplePA},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ex, micros := benchSetup(t, tc.pol)
			for i := 0; i < 3; i++ { // reach the steady state
				if _, err := ex.Step(micros); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(5, func() {
				if _, err := ex.Step(micros); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > stepAllocBudget {
				t.Fatalf("steady-state step allocates %.0f, budget %d", allocs, stepAllocBudget)
			}
			t.Logf("steady-state step: %.0f allocs (budget %d)", allocs, stepAllocBudget)
		})
	}
}

// TestStepWideLayerAllocBudget is the same gate with layers wide enough that
// every Dense matmul crosses the blocked-kernel threshold and fans out over
// the shared worker pool. Before the pool, each large matmul spawned a
// goroutine fan-out per call, silently adding allocs/op; now parallel
// dispatch recycles everything, so wide-layer steps obey the same budget.
func TestStepWideLayerAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	prev := tensor.SetWorkers(4)
	defer tensor.SetWorkers(prev)

	master := nn.MLP([]int{64, 512, 512, 8}, 42) // 5 layers
	const rows, m, inDim = 64, 4, 64
	mod, err := ProfileNetwork("wide-net", master, inDim, rows, rows*m)
	if err != nil {
		t.Fatal(err)
	}
	p := &core.Plan{
		Model:   mod,
		Cluster: hardware.ConfigB(4),
		Stages: []core.Stage{
			{Lo: 0, Hi: 2, Devices: []hardware.DeviceID{0, 1}},
			{Lo: 2, Hi: 5, Devices: []hardware.DeviceID{2, 3}},
		},
		GBS: rows * m, MicroBatch: rows,
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	ex, err := NewExecutor(p, master, func() nn.Optimizer { return nn.SGD{LR: 0.01} },
		ExecOptions{Policy: schedule.DapplePA})
	if err != nil {
		t.Fatal(err)
	}
	micros := makeMicros(m, rows, inDim, 8, 13)
	for i := 0; i < 3; i++ {
		if _, err := ex.Step(micros); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := ex.Step(micros); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > stepAllocBudget {
		t.Fatalf("wide-layer steady-state step allocates %.0f, budget %d", allocs, stepAllocBudget)
	}
	t.Logf("wide-layer steady-state step: %.0f allocs (budget %d)", allocs, stepAllocBudget)
}

// TestStepGeometryChangeRebuilds checks the runtime-cache path: steps with
// a different micro-batch geometry rebuild cleanly and still match the
// sequential reference, and returning to the first geometry re-converges to
// a warm steady state.
func TestStepGeometryChangeRebuilds(t *testing.T) {
	ex, micros8 := benchSetup(t, schedule.DapplePA)
	micros4 := makeMicros(4, 16, 32, 8, 13)
	if _, err := ex.Step(micros8); err != nil {
		t.Fatal(err)
	}
	res4, err := ex.Step(micros4)
	if err != nil {
		t.Fatal(err)
	}
	if res4.M != 4 {
		t.Fatalf("M=%d after geometry change, want 4", res4.M)
	}
	res8, err := ex.Step(micros8)
	if err != nil {
		t.Fatal(err)
	}
	if res8.M != 8 || len(res8.Warmup) != ex.NumStages() {
		t.Fatalf("bad result after switching back: M=%d", res8.M)
	}
}
