package tensor

import (
	"math/rand"
	"testing"
)

// randMat returns a randomized rows x cols matrix.
func randMat(rng *rand.Rand, rows, cols int) *Matrix {
	m := New(rows, cols)
	m.Randomize(rng, 1)
	return m
}

// TestIntoKernelsMatchAllocating checks every Into kernel against the
// allocating MatMul (on explicit transposes) or a plain loop on random
// inputs, including stale destination contents (overwrite semantics) and
// accumulation semantics.
func TestIntoKernelsMatchAllocating(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randMat(rng, 9, 6)
	b := randMat(rng, 6, 5)

	out := randMat(rng, 9, 5) // stale contents must be overwritten
	MatMulInto(out, a, b)
	if d := MaxAbsDiff(out, MatMul(a, b)); d != 0 {
		t.Fatalf("MatMulInto differs by %g", d)
	}

	x := randMat(rng, 9, 6)
	dy := randMat(rng, 9, 5)
	acc := randMat(rng, 6, 5)
	want := acc.Clone()
	want.Add(MatMul(transpose(x), dy))
	MatMulATBAddInto(acc, x, dy)
	if d := MaxAbsDiff(acc, want); d > 1e-12 {
		t.Fatalf("MatMulATBAddInto differs by %g", d)
	}

	w := randMat(rng, 6, 5)
	dx := randMat(rng, 9, 6)
	MatMulABTInto(dx, dy, w)
	if d := MaxAbsDiff(dx, MatMul(dy, transpose(w))); d != 0 {
		t.Fatalf("MatMulABTInto differs by %g", d)
	}

	src := randMat(rng, 4, 3)
	sums := []float64{10, 20, 30}
	wantSums := append([]float64(nil), sums...)
	for r := 0; r < src.Rows; r++ {
		for j, v := range src.Row(r) {
			wantSums[j] += v
		}
	}
	SumRowsInto(sums, src)
	for j := range sums {
		if sums[j] != wantSums[j] {
			t.Fatalf("SumRowsInto[%d] = %g, want %g", j, sums[j], wantSums[j])
		}
	}

	var hdr Matrix
	src.RowSliceInto(&hdr, 1, 3)
	if d := MaxAbsDiff(&hdr, src.RowSlice(1, 3)); d != 0 {
		t.Fatalf("RowSliceInto differs by %g", d)
	}
	hdr.Data[0] = 42
	if src.At(1, 0) != 42 {
		t.Fatal("RowSliceInto does not share storage")
	}
}

// TestIntoKernelsShapePanics exercises each kernel's shape guard.
func TestIntoKernelsShapePanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected shape panic", name)
			}
		}()
		f()
	}
	mustPanic("MatMulInto inner", func() { MatMulInto(New(2, 2), New(2, 3), New(2, 2)) })
	mustPanic("MatMulInto out", func() { MatMulInto(New(3, 2), New(2, 3), New(3, 2)) })
	mustPanic("MatMulATBAddInto rows", func() { MatMulATBAddInto(New(3, 2), New(2, 3), New(3, 2)) })
	mustPanic("MatMulATBAddInto out", func() { MatMulATBAddInto(New(2, 2), New(3, 3), New(3, 2)) })
	mustPanic("MatMulABTInto cols", func() { MatMulABTInto(New(2, 3), New(2, 3), New(3, 2)) })
	mustPanic("MatMulABTInto out", func() { MatMulABTInto(New(2, 2), New(2, 3), New(3, 3)) })
	mustPanic("SumRowsInto", func() { SumRowsInto([]float64{1}, New(2, 3)) })
	mustPanic("RowSliceInto", func() { New(2, 3).RowSliceInto(&Matrix{}, 1, 4) })
}

// TestIntoKernelsZeroAlloc is the allocation-regression gate of the kernel
// layer: every Into kernel must run without heap allocation (shapes kept
// below the parallel fan-out threshold, which spawns goroutines by design).
func TestIntoKernelsZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := randMat(rng, 16, 12)
	b := randMat(rng, 12, 8)
	out := New(16, 8)
	dy := randMat(rng, 16, 8)
	gw := New(12, 8)
	dx := New(16, 12)
	sums := make([]float64, 12)
	var hdr Matrix

	cases := []struct {
		name string
		f    func()
	}{
		{"MatMulInto", func() { MatMulInto(out, a, b) }},
		{"MatMulATBAddInto", func() { MatMulATBAddInto(gw, a, out) }},
		{"MatMulABTInto", func() { MatMulABTInto(dx, dy, gw) }},
		{"SumRowsInto", func() { SumRowsInto(sums, a) }},
		{"RowSliceInto", func() { a.RowSliceInto(&hdr, 2, 9) }},
	}
	for _, tc := range cases {
		if n := testing.AllocsPerRun(20, tc.f); n != 0 {
			t.Errorf("%s allocates %v per run, want 0", tc.name, n)
		}
	}
}

// TestPoolReuse checks the workspace pool leases, recycles and accounts for
// buffers by shape, and that a warm pool stops allocating.
func TestPoolReuse(t *testing.T) {
	p := NewPool()
	m1 := p.Get(3, 4)
	m2 := p.Get(3, 4)
	if m1 == m2 {
		t.Fatal("two live leases share a buffer")
	}
	if p.Leased() != 2 || p.Misses() != 2 {
		t.Fatalf("leased %d misses %d, want 2/2", p.Leased(), p.Misses())
	}
	p.Put(m1)
	if got := p.Get(3, 4); got != m1 {
		t.Fatal("pool did not recycle the freed buffer")
	}
	if got := p.Get(4, 3); got.Rows != 4 || got.Cols != 3 {
		t.Fatal("pool returned wrong shape")
	}
	p.Put(nil) // ignored
	if p.Misses() != 3 {
		t.Fatalf("misses %d, want 3", p.Misses())
	}

	// Warm steady state: get/put cycles allocate nothing.
	p2 := NewPool()
	for i := 0; i < 3; i++ {
		p2.Put(p2.Get(8, 8))
	}
	if n := testing.AllocsPerRun(20, func() { p2.Put(p2.Get(8, 8)) }); n != 0 {
		t.Errorf("warm pool allocates %v per cycle, want 0", n)
	}
	if p2.Leased() != 0 {
		t.Fatalf("leaked %d buffers", p2.Leased())
	}
}
