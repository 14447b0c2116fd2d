package nn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dapple/internal/tensor"
)

// tanhMLP builds a mixed-activation stack (Dense, ReLU, Dense, Tanh, Dense)
// so the workspace tests cover every WorkspaceLayer implementation.
func tanhMLP(seed int64) *Network {
	rng := rand.New(rand.NewSource(seed))
	return &Network{Layers: []Layer{
		NewDense(5, 9, rng), ReLU{}, NewDense(9, 7, rng), Tanh{}, NewDense(7, 3, rng),
	}}
}

// TestWorkspacePathMatchesReference runs the same batch through the
// allocating reference path and the workspace path on identical clones and
// demands matching outputs, input gradients, and parameter gradients.
func TestWorkspacePathMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		ref := tanhMLP(seed)
		wsNet := ref.Clone()
		rng := rand.New(rand.NewSource(seed + 1))
		x := tensor.New(6, 5)
		x.Randomize(rng, 1)
		y := []int{0, 1, 2, 0, 1, 2}

		out, ctxs := ref.Forward(x)
		_, dy := SoftmaxCrossEntropy(out, y)
		dx := ref.Backward(ctxs, dy)

		ws := NewWorkspace()
		var run WSRun
		wout := wsNet.ForwardWS(ws, x, &run)
		wg := ws.Get(wout.Rows, wout.Cols)
		SoftmaxCrossEntropyInto(wg, wout, y)
		wdx := wsNet.BackwardWS(ws, &run, wg)

		if tensor.MaxAbsDiff(out, wout) > 1e-12 {
			return false
		}
		if tensor.MaxAbsDiff(dx, wdx) > 1e-12 {
			return false
		}
		rp, wp := ref.Params(), wsNet.Params()
		for i := range rp {
			if tensor.MaxAbsDiff(rp[i].G, wp[i].G) > 1e-12 {
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
	x := tensor.FromSlice(1, 5, []float64{-1, 0, 2, -3, 4})
	y, ctx := ReLU{}.Forward(x)
	wantY := []float64{0, 0, 2, 0, 4}
	for i, w := range wantY {
		if y.Data[i] != w {
			t.Fatalf("relu fwd %v", y.Data)
		}
	}
	dy := tensor.FromSlice(1, 5, []float64{10, 20, 30, 40, 50})
	dx := ReLU{}.Backward(ctx, dy)
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

// TestSoftmaxCrossEntropyIntoMatches checks the pooled loss kernel equals the
// allocating one, overwriting stale grad contents.
func TestSoftmaxCrossEntropyIntoMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	logits := tensor.New(4, 6)
	logits.Randomize(rng, 2)
	labels := []int{1, 5, 0, 2}
	wantLoss, wantGrad := SoftmaxCrossEntropy(logits, labels)
	grad := tensor.New(4, 6)
	grad.Randomize(rng, 1) // stale contents
	loss := SoftmaxCrossEntropyInto(grad, logits, labels)
	if math.Abs(loss-wantLoss) > 1e-15 {
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
