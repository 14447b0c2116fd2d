// Package nn is the small neural-network layer library the training runtime
// (package train) executes. Every layer has one execution path: ForwardWS
// computes its output into a Workspace buffer and returns an opaque context
// instead of mutating layer state, so many micro-batches can be in flight
// through one layer at once — exactly the property a pipelined schedule
// needs — and a warm training step allocates nothing.
package nn

import (
	"fmt"
	"math"
	"math/rand"

	"dapple/internal/tensor"
)

// Param pairs a trainable tensor with its gradient accumulator.
type Param struct {
	W *tensor.Matrix
	G *tensor.Matrix
}

// Ctx is the per-invocation activation context a layer returns from
// ForwardWS and consumes in BackwardWS.
type Ctx any

// Layer is one differentiable block. Its passes run on a Workspace under an
// ownership contract the pipelined executor upholds:
//
//   - ForwardWS may retain x (as a view, without cloning) inside the returned
//     context; the caller keeps x unmodified until the matching BackwardWS
//     (or a discard) completes.
//   - The returned output is leased from ws and owned by the caller.
//   - BackwardWS may mutate dy in place and return it as the input gradient;
//     callers must treat dy as consumed. Contexts holding workspace-leased
//     state (masks) are released by BackwardWS itself.
type Layer interface {
	// ForwardWS computes the layer output into a workspace buffer, returning
	// the backward stash (which may reference x).
	ForwardWS(ws *Workspace, x *tensor.Matrix) (*tensor.Matrix, Ctx)

	// BackwardWS consumes a ForwardWS context and the output gradient
	// (possibly in place), accumulates parameter gradients, and returns the
	// input gradient.
	BackwardWS(ws *Workspace, ctx Ctx, dy *tensor.Matrix) *tensor.Matrix

	// Params returns the layer's trainable parameters (empty for
	// activations).
	Params() []Param

	// Clone returns a layer of identical shape and parameter values with
	// zeroed gradients.
	Clone() Layer
}

// StashBytes reports the approximate bytes a context retains, the quantity
// the schedule memory model tracks.
func StashBytes(c Ctx) int64 {
	switch v := c.(type) {
	case nil:
		return 0
	case *tensor.Matrix:
		return int64(len(v.Data)) * 8
	case *ReLUMask:
		return int64(len(v.Bits)) * 8
	default:
		return 0
	}
}

// Dense is a fully connected layer: y = x@W + b.
type Dense struct {
	W, B   *tensor.Matrix
	GW, GB *tensor.Matrix
}

// NewDense returns a Dense layer with Xavier-uniform weights from rng.
func NewDense(in, out int, rng *rand.Rand) *Dense {
	d := &Dense{
		W:  tensor.New(in, out),
		B:  tensor.New(1, out),
		GW: tensor.New(in, out),
		GB: tensor.New(1, out),
	}
	d.W.Randomize(rng, math.Sqrt(6/float64(in+out)))
	return d
}

// Params implements Layer.
func (d *Dense) Params() []Param {
	return []Param{{d.W, d.GW}, {d.B, d.GB}}
}

// Clone implements Layer.
func (d *Dense) Clone() Layer {
	return &Dense{
		W:  d.W.Clone(),
		B:  d.B.Clone(),
		GW: tensor.New(d.GW.Rows, d.GW.Cols),
		GB: tensor.New(d.GB.Rows, d.GB.Cols),
	}
}

// ReLU is the rectified linear activation.
type ReLU struct{}

// Params implements Layer.
func (ReLU) Params() []Param { return nil }

// Clone implements Layer.
func (ReLU) Clone() Layer { return ReLU{} }

// Tanh is the hyperbolic-tangent activation.
type Tanh struct{}

// Params implements Layer.
func (Tanh) Params() []Param { return nil }

// Clone implements Layer.
func (Tanh) Clone() Layer { return Tanh{} }

// Network is an ordered layer stack.
type Network struct {
	Layers []Layer
}

// MLP builds an n-hidden-layer perceptron with ReLU activations and a linear
// head: dims like [in, h1, h2, ..., out].
func MLP(dims []int, seed int64) *Network {
	if len(dims) < 2 {
		panic(fmt.Sprintf("nn: MLP needs at least 2 dims, got %d", len(dims)))
	}
	rng := rand.New(rand.NewSource(seed))
	var layers []Layer
	for i := 0; i+1 < len(dims); i++ {
		layers = append(layers, NewDense(dims[i], dims[i+1], rng))
		if i+2 < len(dims) {
			layers = append(layers, ReLU{})
		}
	}
	return &Network{Layers: layers}
}

// Params returns all trainable parameters in layer order.
func (n *Network) Params() []Param {
	var ps []Param
	for _, l := range n.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// ZeroGrads clears every gradient accumulator.
func (n *Network) ZeroGrads() {
	for _, p := range n.Params() {
		p.G.Zero()
	}
}

// Clone deep-copies the network (parameters copied, gradients zeroed).
func (n *Network) Clone() *Network {
	out := &Network{Layers: make([]Layer, len(n.Layers))}
	for i, l := range n.Layers {
		out.Layers[i] = l.Clone()
	}
	return out
}

// NumLayers returns the number of layers, the unit pipeline cuts index.
func (n *Network) NumLayers() int { return len(n.Layers) }

// Slice returns a network view over layers [lo, hi) sharing the same layer
// objects (used to carve pipeline stages out of a master network).
func (n *Network) Slice(lo, hi int) *Network {
	return &Network{Layers: n.Layers[lo:hi]}
}

// SliceClone deep-copies layers [lo, hi) into an independent stage network:
// parameters are copied and gradients zeroed, so per-replica training state
// never aliases the master network.
func (n *Network) SliceClone(lo, hi int) *Network {
	if lo < 0 || hi > len(n.Layers) || lo > hi {
		panic(fmt.Sprintf("nn: slice [%d,%d) of %d layers", lo, hi, len(n.Layers)))
	}
	return n.Slice(lo, hi).Clone()
}
