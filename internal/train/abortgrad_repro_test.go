package train

import (
	"context"
	"testing"
	"time"

	"dapple/internal/core"
	"dapple/internal/nn"
	"dapple/internal/schedule"
)

// Reproducer: an aborted step leaves partially-accumulated gradients in the
// stage networks — and, on replicated stages, the sums of the bucket
// collectives that ran before the abort, which land in the replicas'
// gradient tensors — so the next committed step would apply a polluted
// update unless it starts from zeroed gradients.
func TestAbortLeavesStaleGradients(t *testing.T) {
	cases := []struct {
		name string
		reps []int
	}{
		{"straight", []int{1, 1}},
		{"replicated", []int{2, 2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			master := nn.MLP([]int{6, 12, 10, 3}, 33)
			p := mkPlan(t, master, 6, 6, 6, []int{3, 5}, tc.reps)
			// One bucket per parameterized layer, so tail buckets' collectives
			// run (and sum in place) while head layers still compute.
			ex, err := NewExecutor(p, master, func() nn.Optimizer { return nn.SGD{LR: 0.05} },
				ExecOptions{Policy: schedule.DapplePA, bucketBytes: 8})
			if err != nil {
				t.Fatal(err)
			}
			micros := makeMicros(6, 6, 6, 3, 19)

			// Spread the deadlines across one measured step so they land
			// mid-step on fast and slow hosts alike. The calibration steps
			// commit, leaving zeroed gradients behind.
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
				if stepErr != nil {
					sawStale = anyGradNonzero(ex, p.Stages)
				}
			}
			if !sawStale {
				t.Skip("never caught an abort with partial gradient accumulation")
			}
			t.Log("aborted step left nonzero gradient accumulators")

			// Now run a clean step and compare against a sequential step taken
			// from the executor's CURRENT weights: if stale grads pollute the
			// update, the params diverge far beyond the 1e-9 equivalence
			// tolerance.
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
			requireStagesMatch(t, ex, p, seq)
			for si, s := range p.Stages {
				ref := ex.StageParams(si, 0)
				for r := 1; r < s.Replicas(); r++ {
					for i, pr := range ex.StageParams(si, r) {
						for j, w := range pr.W.Data {
							if w != ref[i].W.Data[j] {
								t.Fatalf("stage %d replica %d param %d elem %d: %v, replica 0 has %v",
									si, r, i, j, w, ref[i].W.Data[j])
							}
						}
					}
				}
			}
		})
	}
}

// anyGradNonzero reports whether any hosted replica of any stage holds a
// nonzero gradient element.
func anyGradNonzero(ex *Executor, stages []core.Stage) bool {
	for si, s := range stages {
		for r := 0; r < s.Replicas(); r++ {
			for _, pr := range ex.StageParams(si, r) {
				for _, g := range pr.G.Data {
					if g != 0 {
						return true
					}
				}
			}
		}
	}
	return false
}
