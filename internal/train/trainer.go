package train

import (
	"fmt"

	"dapple/internal/nn"
	"dapple/internal/tensor"
)

// Batch is one micro-batch of classification examples.
type Batch struct {
	X *tensor.Matrix
	Y []int
}

// Validate checks shape consistency.
func (b Batch) Validate() error {
	if b.X == nil || b.X.Rows != len(b.Y) {
		return fmt.Errorf("train: batch with %d labels for %d rows", len(b.Y), rowsOf(b.X))
	}
	return nil
}

// check is Validate plus the checks against the network the batch feeds: the
// feature width must be the network's input width and every label a class
// index in [0, classes). A zero in or classes skips that check. Failing here
// turns what would be a kernel shape panic or an out-of-range label index —
// on a device goroutine, fatal to the whole process — into an error.
func (b Batch) check(in, classes int) error {
	if err := b.Validate(); err != nil {
		return err
	}
	if in > 0 && b.X.Cols != in {
		return fmt.Errorf("train: batch has %d features, network takes %d", b.X.Cols, in)
	}
	if classes > 0 {
		for i, y := range b.Y {
			if y < 0 || y >= classes {
				return fmt.Errorf("train: label %d of row %d outside [0, %d)", y, i, classes)
			}
		}
	}
	return nil
}

// netShape returns the input width and class count a network's Dense layers
// fix (activations keep their input's width); 0 where no Dense constrains it.
func netShape(net *nn.Network) (in, classes int) {
	for _, l := range net.Layers {
		if d, ok := l.(*nn.Dense); ok {
			if in == 0 {
				in = d.W.Rows
			}
			classes = d.W.Cols
		}
	}
	return in, classes
}

func rowsOf(m *tensor.Matrix) int {
	if m == nil {
		return 0
	}
	return m.Rows
}

// SequentialStep runs one optimizer step over the micro-batches on a single
// "device": forward+backward each micro-batch in order, accumulate gradients,
// average by the micro-batch count, and apply — the paper's single-device
// baseline and the ground truth all parallel schedules must match.
func SequentialStep(net *nn.Network, micros []Batch, opt nn.Optimizer) (float64, error) {
	loss, err := AccumulateGrads(net, micros)
	if err != nil {
		return 0, err
	}
	opt.Step(net.Params())
	return loss, nil
}

// AccumulateGrads runs forward+backward over the micro-batches without
// applying an update, leaving the micro-batch-averaged gradients in the
// network. It runs the same workspace layer path and kernels as the Executor,
// on a call-local workspace. Every batch is checked before any gradient is
// touched.
func AccumulateGrads(net *nn.Network, micros []Batch) (float64, error) {
	if len(micros) == 0 {
		return 0, fmt.Errorf("train: no micro-batches")
	}
	in, classes := netShape(net)
	for _, b := range micros {
		if err := b.check(in, classes); err != nil {
			return 0, err
		}
	}
	ws := nn.NewWorkspace()
	var run nn.WSRun
	var loss float64
	for _, b := range micros {
		out := net.ForwardWS(ws, b.X, &run)
		dy := ws.Get(out.Rows, out.Cols)
		loss += nn.SoftmaxCrossEntropyInto(dy, out, b.Y)
		if dx := net.BackwardWS(ws, &run, dy); dx != dy {
			ws.Put(dx)
		}
		ws.Put(dy)
	}
	scaleGrads(net.Params(), 1/float64(len(micros)))
	return loss / float64(len(micros)), nil
}

func scaleGrads(params []nn.Param, s float64) {
	for _, p := range params {
		p.G.Scale(s)
	}
}
