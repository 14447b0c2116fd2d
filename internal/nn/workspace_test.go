package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dapple/internal/tensor"
)

// tanhMLP builds a mixed-activation stack (Dense, ReLU, Dense, Tanh, Dense)
// so the tests cover every Layer implementation.
func tanhMLP(seed int64) *Network {
	rng := rand.New(rand.NewSource(seed))
	return &Network{Layers: []Layer{
		NewDense(5, 9, rng), ReLU{}, NewDense(9, 7, rng), Tanh{}, NewDense(7, 3, rng),
	}}
}

// TestWorkspacePathMatchesReference runs the same batch through the
// workspace path and through refPass, a plain-loop transcription of the
// layer definitions, and demands matching outputs, input gradients and
// parameter gradients.
func TestWorkspacePathMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		net := tanhMLP(seed)
		rng := rand.New(rand.NewSource(seed + 1))
		x := tensor.New(6, 5)
		x.Randomize(rng, 1)
		y := []int{0, 1, 2, 0, 1, 2}

		out, dx, grads := refPass(net, x, y)

		ws := NewWorkspace()
		var run WSRun
		wout := net.ForwardWS(ws, x, &run)
		if tensor.MaxAbsDiff(out, wout) > 1e-12 {
			return false
		}
		wg := ws.Get(wout.Rows, wout.Cols)
		SoftmaxCrossEntropyInto(wg, wout, y)
		wdx := net.BackwardWS(ws, &run, wg)
		if tensor.MaxAbsDiff(dx, wdx) > 1e-12 {
			return false
		}
		for i, p := range net.Params() {
			if tensor.MaxAbsDiff(grads[i], p.G) > 1e-12 {
				return false
			}
		}
		if wdx != wg {
			ws.Put(wdx)
		}
		ws.Put(wg)
		return ws.Pool.Leased() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// refPass is the reference forward, mean softmax cross-entropy and backward
// of net on (x, y), written as plain loops straight from each layer's
// definition: it returns the logits, the input gradient and one gradient per
// parameter in Params order, and leaves net untouched.
func refPass(net *Network, x *tensor.Matrix, y []int) (out, dx *tensor.Matrix, grads []*tensor.Matrix) {
	acts := []*tensor.Matrix{x.Clone()}
	for _, l := range net.Layers {
		in := acts[len(acts)-1]
		var o *tensor.Matrix
		switch l := l.(type) {
		case *Dense:
			o = tensor.New(in.Rows, l.W.Cols)
			for r := 0; r < in.Rows; r++ {
				for c := 0; c < l.W.Cols; c++ {
					s := l.B.At(0, c)
					for k := 0; k < in.Cols; k++ {
						s += in.At(r, k) * l.W.At(k, c)
					}
					o.Set(r, c, s)
				}
			}
		case ReLU:
			o = in.Clone()
			for i, v := range o.Data {
				if !(v > 0) {
					o.Data[i] = 0
				}
			}
		case Tanh:
			o = in.Clone()
			for i, v := range o.Data {
				o.Data[i] = math.Tanh(v)
			}
		default:
			panic(fmt.Sprintf("refPass: no reference for %T", l))
		}
		acts = append(acts, o)
	}
	out = acts[len(acts)-1]

	// d(mean cross-entropy)/d(logits) = (softmax - onehot) / rows.
	g := tensor.New(out.Rows, out.Cols)
	for r := 0; r < out.Rows; r++ {
		var z float64
		for c := 0; c < out.Cols; c++ {
			z += math.Exp(out.At(r, c))
		}
		for c := 0; c < out.Cols; c++ {
			p := math.Exp(out.At(r, c)) / z
			if c == y[r] {
				p--
			}
			g.Set(r, c, p/float64(out.Rows))
		}
	}

	perLayer := make([][]*tensor.Matrix, len(net.Layers))
	for li := len(net.Layers) - 1; li >= 0; li-- {
		in, o := acts[li], acts[li+1]
		var gin *tensor.Matrix
		switch l := net.Layers[li].(type) {
		case *Dense:
			gw, gb := tensor.New(l.W.Rows, l.W.Cols), tensor.New(1, l.W.Cols)
			gin = tensor.New(in.Rows, in.Cols)
			for r := 0; r < in.Rows; r++ {
				for c := 0; c < l.W.Cols; c++ {
					gb.Data[c] += g.At(r, c)
					for k := 0; k < in.Cols; k++ {
						gw.Set(k, c, gw.At(k, c)+in.At(r, k)*g.At(r, c))
						gin.Set(r, k, gin.At(r, k)+g.At(r, c)*l.W.At(k, c))
					}
				}
			}
			perLayer[li] = []*tensor.Matrix{gw, gb}
		case ReLU:
			gin = g.Clone()
			for i, v := range in.Data {
				if !(v > 0) {
					gin.Data[i] = 0
				}
			}
		case Tanh:
			gin = g.Clone()
			for i, v := range o.Data {
				gin.Data[i] *= 1 - v*v
			}
		}
		g = gin
	}
	for _, ls := range perLayer {
		grads = append(grads, ls...)
	}
	return out, g, grads
}

// TestWorkspaceSteadyStateZeroAlloc is the layer-library half of the
// zero-alloc guarantee: once the pool is warm, a full forward+loss+backward
// cycle allocates nothing.
func TestWorkspaceSteadyStateZeroAlloc(t *testing.T) {
	net := tanhMLP(3)
	ws := NewWorkspace()
	var run WSRun
	rng := rand.New(rand.NewSource(4))
	x := tensor.New(8, 5)
	x.Randomize(rng, 1)
	y := []int{0, 1, 2, 0, 1, 2, 0, 1}
	params := net.Params()

	cycle := func() {
		out := net.ForwardWS(ws, x, &run)
		g := ws.Get(out.Rows, out.Cols)
		SoftmaxCrossEntropyInto(g, out, y)
		dx := net.BackwardWS(ws, &run, g)
		if dx != g {
			ws.Put(dx)
		}
		ws.Put(g)
		for _, p := range params {
			p.G.Zero()
		}
	}
	cycle()
	cycle()
	if n := testing.AllocsPerRun(20, cycle); n != 0 {
		t.Errorf("warm workspace cycle allocates %v, want 0", n)
	}
	if ws.Pool.Leased() != 0 {
		t.Fatalf("leaked %d buffers", ws.Pool.Leased())
	}
}

// TestDiscardWSReleasesEverything checks the re-computation path returns all
// pooled state without a backward pass.
func TestDiscardWSReleasesEverything(t *testing.T) {
	net := tanhMLP(5)
	ws := NewWorkspace()
	var run WSRun
	x := tensor.New(4, 5)
	rng := rand.New(rand.NewSource(6))
	x.Randomize(rng, 1)

	net.ForwardWS(ws, x, &run)
	net.DiscardWS(ws, &run)
	if ws.Pool.Leased() != 0 {
		t.Fatalf("discard leaked %d buffers", ws.Pool.Leased())
	}
	// The mask free list must also be replenished: a second pass reuses it.
	misses := ws.Pool.Misses()
	net.ForwardWS(ws, x, &run)
	net.DiscardWS(ws, &run)
	if ws.Pool.Misses() != misses {
		t.Fatal("second forward allocated fresh buffers after discard")
	}
}

// TestReLUMaskSemantics pins the mask against the definition: gradients pass
// exactly where the input was strictly positive, and the stash accounting
// reports the packed size.
func TestReLUMaskSemantics(t *testing.T) {
	ws := NewWorkspace()
	x := tensor.FromSlice(1, 5, []float64{-1, 0, 2, -3, 4})
	y, ctx := ReLU{}.ForwardWS(ws, x)
	wantY := []float64{0, 0, 2, 0, 4}
	for i, w := range wantY {
		if y.Data[i] != w {
			t.Fatalf("relu fwd %v", y.Data)
		}
	}
	dy := tensor.FromSlice(1, 5, []float64{10, 20, 30, 40, 50})
	dx := ReLU{}.BackwardWS(ws, ctx, dy)
	wantDx := []float64{0, 0, 30, 0, 50}
	for i, w := range wantDx {
		if dx.Data[i] != w {
			t.Fatalf("relu bwd %v", dx.Data)
		}
	}
	mask := ctx.(*ReLUMask)
	if got := StashBytes(mask); got != 8 {
		t.Fatalf("mask stash bytes %d, want 8", got)
	}
	if StashBytes(NewReLUMask(65)) != 16 {
		t.Fatal("mask stash bytes not word-granular")
	}
}

// TestReLUMaskWordAtATimeMatchesNaive pins the word-at-a-time forward and
// Apply against the per-element definition on random data, for lengths on
// every side of a word boundary and mask densities from all-blocked through
// sparse and dense to all-passing (the skip, clear and bit-scan branches).
func TestReLUMaskWordAtATimeMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, n := range []int{0, 1, 63, 64, 65, 127, 128, 130, 1000} {
		for _, pass := range []float64{0, 0.02, 0.5, 0.98, 1} {
			x := tensor.New(1, n)
			for i := range x.Data {
				x.Data[i] = -rng.Float64()
				if rng.Float64() < pass {
					x.Data[i] = rng.Float64() + 0.1
				}
			}
			if n > 2 {
				x.Data[1], x.Data[2] = 0, math.NaN() // neither is > 0
			}
			y := x.Clone()
			mask := NewReLUMask(n)
			mask.forward(y)
			dy := tensor.New(1, n)
			dy.Randomize(rng, 1)
			got := dy.Clone()
			mask.Apply(got)
			for i, v := range x.Data {
				wantY, wantDx := 0.0, 0.0
				if v > 0 {
					wantY, wantDx = v, dy.Data[i]
				}
				if bit := mask.Bits[i>>6]>>(uint(i)&63)&1 == 1; bit != (v > 0) {
					t.Fatalf("n=%d pass=%g: mask bit %d = %v for input %v", n, pass, i, bit, v)
				}
				if math.Float64bits(y.Data[i]) != math.Float64bits(wantY) || math.Float64bits(got.Data[i]) != math.Float64bits(wantDx) {
					t.Fatalf("n=%d pass=%g element %d: forward %v (want %v), backward %v (want %v)",
						n, pass, i, y.Data[i], wantY, got.Data[i], wantDx)
				}
			}
			if n%64 != 0 && mask.Bits[len(mask.Bits)-1]>>(uint(n)&63) != 0 {
				t.Fatalf("n=%d: forward set bits past the last element", n)
			}
		}
	}
}

// TestWorkspaceMaskReuseResizes checks pooled masks re-target cleanly across
// sizes (zeroed, right length).
func TestWorkspaceMaskReuseResizes(t *testing.T) {
	ws := NewWorkspace()
	mk := ws.GetMask(130)
	for i := range mk.Bits {
		mk.Bits[i] = ^uint64(0)
	}
	ws.PutMask(mk)
	small := ws.GetMask(10)
	if small != mk {
		t.Fatal("mask not recycled")
	}
	if small.N != 10 || len(small.Bits) != 1 || small.Bits[0] != 0 {
		t.Fatalf("recycled mask not reset: N=%d words=%d bits=%x", small.N, len(small.Bits), small.Bits[0])
	}
	ws.PutMask(small)
	big := ws.GetMask(200)
	if big.N != 200 || len(big.Bits) != 4 {
		t.Fatalf("regrown mask wrong: N=%d words=%d", big.N, len(big.Bits))
	}
	for _, w := range big.Bits {
		if w != 0 {
			t.Fatal("regrown mask not zeroed")
		}
	}
}

// TestSoftmaxCrossEntropyIntoMatches checks the loss kernel overwrites its
// destination: stale grad contents give bit-for-bit the loss and gradient of
// a zeroed destination.
func TestSoftmaxCrossEntropyIntoMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	logits := tensor.New(4, 6)
	logits.Randomize(rng, 2)
	labels := []int{1, 5, 0, 2}
	wantGrad := tensor.New(4, 6)
	wantLoss := SoftmaxCrossEntropyInto(wantGrad, logits, labels)
	grad := tensor.New(4, 6)
	grad.Randomize(rng, 1) // stale contents
	loss := SoftmaxCrossEntropyInto(grad, logits, labels)
	if loss != wantLoss {
		t.Fatalf("loss %g vs %g", loss, wantLoss)
	}
	if d := tensor.MaxAbsDiff(grad, wantGrad); d != 0 {
		t.Fatalf("grad differs by %g", d)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected shape panic")
		}
	}()
	SoftmaxCrossEntropyInto(tensor.New(2, 2), logits, labels)
}
