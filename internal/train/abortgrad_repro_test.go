package train

import (
	"context"
	"math"
	"testing"
	"time"

	"dapple/internal/nn"
	"dapple/internal/schedule"
	"dapple/internal/tensor"
)

// Reproducer: an aborted step leaves partially-accumulated gradients in the
// stage networks; the next committed step applies a polluted update.
func TestAbortLeavesStaleGradients(t *testing.T) {
	master := nn.MLP([]int{6, 12, 10, 3}, 33)
	p := mkPlan(t, master, 6, 6, 6, []int{3, 5}, []int{1, 1})
	ex, err := NewExecutor(p, master, func() nn.Optimizer { return nn.SGD{LR: 0.05} },
		ExecOptions{Policy: schedule.DapplePA})
	if err != nil {
		t.Fatal(err)
	}
	micros := makeMicros(6, 6, 6, 3, 19)

	// Spread the deadlines across one measured step so they land mid-step
	// on fast and slow hosts alike. The calibration steps commit, leaving
	// zeroed gradients behind.
	full := time.Hour
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		if _, err := ex.Step(micros); err != nil {
			t.Fatal(err)
		}
		full = min(full, time.Since(t0))
	}
	sawStale := false
	for trial := 0; trial < 200 && !sawStale; trial++ {
		ctx, cancel := context.WithTimeout(context.Background(),
			full*time.Duration(trial%8+1)/9)
		_, stepErr := ex.StepContext(ctx, micros)
		cancel()
		if stepErr == nil {
			continue
		}
		for si := range p.Stages {
			for _, pr := range ex.StageParams(si, 0) {
				for _, g := range pr.G.Data {
					if g != 0 {
						sawStale = true
					}
				}
			}
		}
	}
	if !sawStale {
		t.Skip("never caught an abort with partial gradient accumulation")
	}
	t.Log("aborted step left nonzero gradient accumulators")

	// Now run a clean step and compare against a sequential step taken from
	// the executor's CURRENT weights: if stale grads pollute the update, the
	// params diverge far beyond the 1e-9 equivalence tolerance.
	seq := nn.MLP([]int{6, 12, 10, 3}, 1)
	at := 0
	for si := range p.Stages {
		for _, pr := range ex.StageParams(si, 0) {
			copy(seq.Params()[at].W.Data, pr.W.Data)
			at++
		}
	}
	if _, err := SequentialStep(seq, micros, nn.SGD{LR: 0.05}); err != nil {
		t.Fatal(err)
	}
	if _, err := ex.Step(micros); err != nil {
		t.Fatal(err)
	}
	worst := 0.0
	at = 0
	for si, s := range p.Stages {
		sl := seq.Slice(s.Lo, s.Hi).Params()
		for i, pr := range ex.StageParams(si, 0) {
			worst = math.Max(worst, tensor.MaxAbsDiff(pr.W, sl[i].W))
		}
		_ = at
	}
	t.Logf("max param divergence vs sequential after post-abort step: %g", worst)
	if worst > 1e-9 {
		t.Fatalf("post-abort step diverged from sequential by %g", worst)
	}
}
