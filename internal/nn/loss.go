package nn

import (
	"fmt"
	"math"

	"dapple/internal/tensor"
)

// SoftmaxCrossEntropyInto returns the mean cross-entropy of logits against
// the integer labels and writes the logits gradient, scaled by 1/rows, into
// the preallocated grad (same shape as logits, contents overwritten). The
// 1/rows scale means summing per-micro-batch gradients then dividing by the
// micro-batch count reproduces the global-batch mean — the
// gradient-accumulation identity the paper's equivalence argument relies on.
// Labels must lie in [0, logits.Cols); package train rejects batches that
// break this before any layer runs.
func SoftmaxCrossEntropyInto(grad, logits *tensor.Matrix, labels []int) float64 {
	rows := logits.Rows
	if grad.Rows != rows || grad.Cols != logits.Cols {
		panic(fmt.Sprintf("nn: cross-entropy grad %dx%d for %dx%d logits",
			grad.Rows, grad.Cols, rows, logits.Cols))
	}
	var loss float64
	for r := 0; r < rows; r++ {
		row := logits.Row(r)
		maxv := row[0]
		for _, v := range row[1:] {
			if v > maxv {
				maxv = v
			}
		}
		var sum float64
		g := grad.Row(r)
		for j, v := range row {
			e := math.Exp(v - maxv)
			g[j] = e
			sum += e
		}
		for j := range g {
			g[j] /= sum
		}
		loss += -math.Log(math.Max(g[labels[r]], 1e-300))
		g[labels[r]] -= 1
	}
	grad.Scale(1 / float64(rows))
	return loss / float64(rows)
}
