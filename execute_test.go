package dapple

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"dapple/internal/tensor"
)

// TestEngineExecute drives the public plan-then-execute surface end to end:
// profile a real network, plan it, really execute the plan, and verify the
// execution against the simulated schedule.
func TestEngineExecute(t *testing.T) {
	master := NewMLP([]int{8, 16, 12, 4}, 11) // 5 layers
	model, err := ProfileNetwork("exec-net", master, 8, 4, 16)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(
		WithCluster(ConfigB(2)),
		WithStrategy("dapple"),
	)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	pr, err := eng.Plan(ctx, model)
	if err != nil {
		t.Fatal(err)
	}

	micros := make([]TrainBatch, pr.Plan.M())
	for i := range micros {
		x := tensor.New(pr.Plan.MicroBatch, 8)
		x.Randomize(rand.New(rand.NewSource(int64(i))), 1)
		y := make([]int, pr.Plan.MicroBatch)
		for j := range y {
			y[j] = (i + j) % 4
		}
		micros[i] = TrainBatch{X: x, Y: y}
	}

	ex, err := NewExecutor(pr, master, func() Optimizer { return SGDOptimizer(0.1) })
	if err != nil {
		t.Fatal(err)
	}
	res, err := ex.StepContext(ctx, micros)
	if err != nil {
		t.Fatal(err)
	}
	if res.Loss <= 0 || res.M != pr.Plan.M() {
		t.Fatalf("unexpected result: loss %g, M %d", res.Loss, res.M)
	}
	if res.Trace == nil {
		t.Fatal("expected a real-execution trace")
	}
	simRes, err := eng.SimulatePlan(ctx, pr)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyExecution(pr, simRes, res); err != nil {
		t.Fatalf("VerifyExecution: %v", err)
	}
	if g := ExecGantt(res, 60); !strings.Contains(g, "s0.d0") {
		t.Fatalf("ExecGantt missing device row:\n%s", g)
	}

	// The executor steps repeatedly on the same carved stages.
	for i := 0; i < 3; i++ {
		if _, err := ex.Step(micros); err != nil {
			t.Fatal(err)
		}
	}

	if _, err := NewExecutor(nil, master, nil); err == nil {
		t.Fatal("expected error: nil plan result")
	}
}
