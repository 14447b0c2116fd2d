package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dapple/internal/tensor"
)

// wsLoss returns the mean cross-entropy of one workspace forward pass,
// releasing everything the pass leased.
func wsLoss(net *Network, ws *Workspace, x *tensor.Matrix, y []int) float64 {
	var run WSRun
	out := net.ForwardWS(ws, x, &run)
	g := ws.Get(out.Rows, out.Cols)
	l := SoftmaxCrossEntropyInto(g, out, y)
	ws.Put(g)
	net.DiscardWS(ws, &run)
	return l
}

// backward consumes run with the output gradient dy (left unmodified),
// accumulating parameter gradients, and returns a copy of the input gradient.
func backward(net *Network, ws *Workspace, run *WSRun, dy *tensor.Matrix) *tensor.Matrix {
	g := ws.Get(dy.Rows, dy.Cols)
	copy(g.Data, dy.Data)
	dx := net.BackwardWS(ws, run, g)
	out := dx.Clone()
	if dx != g {
		ws.Put(dx)
	}
	ws.Put(g)
	return out
}

// trainPass runs forward, loss and backward for one batch, accumulating
// parameter gradients, and returns the loss.
func trainPass(net *Network, ws *Workspace, x *tensor.Matrix, y []int) float64 {
	var run WSRun
	out := net.ForwardWS(ws, x, &run)
	g := ws.Get(out.Rows, out.Cols)
	l := SoftmaxCrossEntropyInto(g, out, y)
	if dx := net.BackwardWS(ws, &run, g); dx != g {
		ws.Put(dx)
	}
	ws.Put(g)
	return l
}

// numericGrad estimates dLoss/dv[idx] by central differences.
func numericGrad(net *Network, ws *Workspace, x *tensor.Matrix, y []int, v []float64, idx int) float64 {
	const h = 1e-6
	orig := v[idx]
	v[idx] = orig + h
	lp := wsLoss(net, ws, x, y)
	v[idx] = orig - h
	lm := wsLoss(net, ws, x, y)
	v[idx] = orig
	return (lp - lm) / (2 * h)
}

// TestBackpropMatchesNumericGradient is the layer library's independent
// oracle: on a stack holding every layer kind (Dense, the fused Dense+ReLU
// pair, Tanh), analytic parameter and input gradients from the workspace
// path agree with finite differences of its loss.
func TestBackpropMatchesNumericGradient(t *testing.T) {
	net := tanhMLP(42)
	rng := rand.New(rand.NewSource(7))
	x := tensor.New(6, 5)
	x.Randomize(rng, 1)
	y := []int{0, 1, 2, 0, 1, 2}

	ws := NewWorkspace()
	var run WSRun
	out := net.ForwardWS(ws, x, &run)
	g := ws.Get(out.Rows, out.Cols)
	SoftmaxCrossEntropyInto(g, out, y)
	dx := net.BackwardWS(ws, &run, g).Clone()

	check := func(what string, v, grad []float64) {
		t.Helper()
		for _, idx := range []int{0, len(v) / 3, len(v) / 2, len(v) - 1} {
			want := numericGrad(net, ws, x, y, v, idx)
			if got := grad[idx]; math.Abs(got-want) > 1e-5*(1+math.Abs(want)) {
				t.Fatalf("%s[%d]: analytic %g vs numeric %g", what, idx, got, want)
			}
		}
	}
	for pi, p := range net.Params() {
		check(fmt.Sprintf("param %d", pi), p.W.Data, p.G.Data)
	}
	check("input", x.Data, dx.Data)
}

// TestForwardIsReentrant: two micro-batches in flight through the same
// layers at once — the property pipelining depends on — must not interfere,
// in either backward order.
func TestForwardIsReentrant(t *testing.T) {
	net := MLP([]int{4, 8, 3}, 1)
	ws := NewWorkspace()
	rng := rand.New(rand.NewSource(2))
	x1, x2 := tensor.New(3, 4), tensor.New(3, 4)
	x1.Randomize(rng, 1)
	x2.Randomize(rng, 1)
	dy := tensor.New(3, 3)
	dy.Randomize(rng, 1)

	var r1, r2 WSRun
	o1 := net.ForwardWS(ws, x1, &r1).Clone()
	net.DiscardWS(ws, &r1)
	live := net.ForwardWS(ws, x1, &r1)
	net.ForwardWS(ws, x2, &r2) // while r1 is still in flight
	if d := tensor.MaxAbsDiff(o1, live); d != 0 {
		t.Fatalf("same input gives different outputs, or the second forward overwrote the first: %g", d)
	}

	// Backward in the opposite order of forward.
	backward(net, ws, &r2, dy)
	g2 := GradSnapshot(net)
	net.ZeroGrads()
	backward(net, ws, &r1, dy)
	g1 := GradSnapshot(net)

	// Now recompute sequentially for reference.
	net.ZeroGrads()
	net.ForwardWS(ws, x1, &r1)
	backward(net, ws, &r1, dy)
	s1 := GradSnapshot(net)
	net.ZeroGrads()
	net.ForwardWS(ws, x2, &r1)
	backward(net, ws, &r1, dy)
	s2 := GradSnapshot(net)

	for i := range g1 {
		if math.Abs(g1[i]-s1[i]) > 1e-12 || math.Abs(g2[i]-s2[i]) > 1e-12 {
			t.Fatal("interleaved backward differs from sequential")
		}
	}
	if ws.Pool.Leased() != 0 {
		t.Fatalf("leaked %d buffers", ws.Pool.Leased())
	}
}

// GradSnapshot flattens current gradients (test helper).
func GradSnapshot(n *Network) []float64 {
	var out []float64
	for _, p := range n.Params() {
		out = append(out, append([]float64(nil), p.G.Data...)...)
	}
	return out
}

func TestCloneIsDeepAndZeroGrad(t *testing.T) {
	net := MLP([]int{3, 4, 2}, 5)
	trainPass(net, NewWorkspace(), tensor.New(2, 3), []int{0, 1})

	c := net.Clone()
	for _, p := range c.Params() {
		for _, g := range p.G.Data {
			if g != 0 {
				t.Fatal("clone has non-zero grads")
			}
		}
	}
	// Mutating the clone's params must not touch the original.
	c.Params()[0].W.Data[0] += 1
	if net.Params()[0].W.Data[0] == c.Params()[0].W.Data[0] {
		t.Fatal("clone shares parameter storage")
	}
}

func TestSoftmaxCrossEntropyGradientSumsToZero(t *testing.T) {
	// Each row's softmax gradient sums to zero (probabilities minus onehot).
	rng := rand.New(rand.NewSource(11))
	logits := tensor.New(4, 6)
	logits.Randomize(rng, 3)
	g := tensor.New(4, 6)
	SoftmaxCrossEntropyInto(g, logits, []int{1, 5, 0, 2})
	for r := 0; r < 4; r++ {
		var s float64
		for _, v := range g.Row(r) {
			s += v
		}
		if math.Abs(s) > 1e-12 {
			t.Fatalf("row %d grad sums to %g", r, s)
		}
	}
}

func TestSoftmaxCrossEntropyLoss(t *testing.T) {
	// Uniform logits give log(C) loss.
	logits := tensor.New(2, 4)
	l := SoftmaxCrossEntropyInto(tensor.New(2, 4), logits, []int{0, 3})
	if math.Abs(l-math.Log(4)) > 1e-12 {
		t.Fatalf("uniform loss %g, want %g", l, math.Log(4))
	}
}

func TestSGDStep(t *testing.T) {
	net := MLP([]int{2, 2}, 3)
	p := net.Params()[0]
	before := p.W.Data[0]
	p.G.Data[0] = 2
	SGD{LR: 0.5}.Step(net.Params())
	if p.W.Data[0] != before-1 {
		t.Fatalf("sgd step: %g -> %g", before, p.W.Data[0])
	}
	if p.G.Data[0] != 0 {
		t.Fatal("sgd did not zero grads")
	}
}

func TestAdamDeterministic(t *testing.T) {
	run := func() []float64 {
		net := MLP([]int{3, 3, 2}, 9)
		opt := NewAdam(1e-3)
		rng := rand.New(rand.NewSource(1))
		x := tensor.New(4, 3)
		x.Randomize(rng, 1)
		y := []int{0, 1, 0, 1}
		ws := NewWorkspace()
		for i := 0; i < 5; i++ {
			trainPass(net, ws, x, y)
			opt.Step(net.Params())
		}
		var ps []float64
		for _, p := range net.Params() {
			ps = append(ps, p.W.Data...)
		}
		return ps
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("adam training is not deterministic")
		}
	}
}

func TestTrainingReducesLoss(t *testing.T) {
	net := MLP([]int{2, 16, 2}, 1234)
	opt := NewAdam(5e-3)
	rng := rand.New(rand.NewSource(99))
	// XOR-ish separable data.
	x := tensor.New(64, 2)
	y := make([]int, 64)
	for i := 0; i < 64; i++ {
		a, b := rng.Float64()*2-1, rng.Float64()*2-1
		x.Set(i, 0, a)
		x.Set(i, 1, b)
		if a*b > 0 {
			y[i] = 1
		}
	}
	ws := NewWorkspace()
	var first, last float64
	for i := 0; i < 200; i++ {
		l := trainPass(net, ws, x, y)
		opt.Step(net.Params())
		if i == 0 {
			first = l
		}
		last = l
	}
	if last > first/2 {
		t.Fatalf("loss barely moved: %g -> %g", first, last)
	}
}

// Property: gradient accumulation is linear — two micro-batches in flight at
// once and backpropagated into one accumulator give grad(b1) + grad(b2).
func TestGradAccumulationLinearity(t *testing.T) {
	f := func(seed int64) bool {
		net := MLP([]int{3, 5, 2}, 77)
		ws := NewWorkspace()
		rng := rand.New(rand.NewSource(seed))
		x1, x2 := tensor.New(2, 3), tensor.New(2, 3)
		x1.Randomize(rng, 1)
		x2.Randomize(rng, 1)
		y := []int{0, 1}
		grad := func(out *tensor.Matrix) *tensor.Matrix {
			g := tensor.New(out.Rows, out.Cols)
			SoftmaxCrossEntropyInto(g, out, y)
			return g
		}

		var r1, r2 WSRun
		dy1 := grad(net.ForwardWS(ws, x1, &r1))
		dy2 := grad(net.ForwardWS(ws, x2, &r2))
		backward(net, ws, &r1, dy1)
		backward(net, ws, &r2, dy2)
		both := GradSnapshot(net)

		net.ZeroGrads()
		trainPass(net, ws, x1, y)
		g1 := GradSnapshot(net)
		net.ZeroGrads()
		trainPass(net, ws, x2, y)
		g2 := GradSnapshot(net)

		for i := range both {
			if math.Abs(both[i]-(g1[i]+g2[i])) > 1e-9 {
				return false
			}
		}
		return ws.Pool.Leased() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestNetworkSliceSharesLayers(t *testing.T) {
	net := MLP([]int{2, 3, 2}, 8)
	head := net.Slice(0, 1)
	head.Layers[0].(*Dense).W.Data[0] = 123
	if net.Layers[0].(*Dense).W.Data[0] != 123 {
		t.Fatal("slice does not share layers")
	}
}

func TestStashBytes(t *testing.T) {
	m := tensor.New(2, 3)
	if StashBytes(m) != 48 {
		t.Fatalf("StashBytes matrix = %d", StashBytes(m))
	}
	if StashBytes(nil) != 0 {
		t.Fatal("StashBytes(nil) != 0")
	}
}
