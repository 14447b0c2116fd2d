package transport

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// rankOrderSum is the flat ring's oracle: (((b0 + b1) + b2) + ...) per
// element, in rank order.
func rankOrderSum(bufs [][]float64) []float64 {
	out := append([]float64(nil), bufs[0]...)
	for _, b := range bufs[1:] {
		for i, v := range b {
			out[i] += v
		}
	}
	return out
}

// hierOrderSum is the hierarchical oracle: each group's members summed in
// member order, then the group sums in group order.
func hierOrderSum(groups [][]int, bufs [][]float64) []float64 {
	var out []float64
	for _, g := range groups {
		lead := append([]float64(nil), bufs[g[0]]...)
		for _, m := range g[1:] {
			for i, v := range bufs[m] {
				lead[i] += v
			}
		}
		if out == nil {
			out = lead
			continue
		}
		for i, v := range lead {
			out[i] += v
		}
	}
	return out
}

// randBufs builds n random size-element vectors.
func randBufs(n, size int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	bufs := make([][]float64, n)
	for i := range bufs {
		bufs[i] = make([]float64, size)
		for j := range bufs[i] {
			bufs[i][j] = rng.NormFloat64()
		}
	}
	return bufs
}

// requireAll fails unless every buffer equals want bit-for-bit.
func requireAll(t *testing.T, what string, bufs [][]float64, want []float64) {
	t.Helper()
	for rank := range bufs {
		for i := range want {
			if bufs[rank][i] != want[i] {
				t.Fatalf("%s: rank %d element %d: %g, oracle %g", what, rank, i, bufs[rank][i], want[i])
			}
		}
	}
}

// spanSizes are the vector lengths around the sweep's span boundaries and
// the vector kernels' parallel threshold (vecParMin).
var spanSizes = []int{sweepSpan - 1, sweepSpan, sweepSpan + 1, 3*sweepSpan + 7, 1 << 14}

func TestRingAllReduce(t *testing.T) {
	cases := [][2]int{{2, 1}, {2, 17}, {3, 8}, {5, 100}, {8, 1000}, {7, 3}}
	for _, size := range spanSizes {
		cases = append(cases, [2]int{2, size}, [2]int{3, size})
	}
	for _, tc := range cases {
		n, size := tc[0], tc[1]
		r := NewRing(n, size)
		for iter := 0; iter < 3; iter++ { // reuse the same Ring
			bufs := randBufs(n, size, int64(n*1000+size+iter))
			want := rankOrderSum(bufs)
			r.AllReduce(bufs)
			requireAll(t, fmt.Sprintf("n=%d size=%d iter=%d", n, size, iter), bufs, want)
		}
	}
}

// TestRingChunkCountBitIdentical pins the collectives' central invariant:
// the canonical rank-order accumulation makes the result a pure function of
// the inputs, so reducing any split of the vector into sub-ranges is
// bit-identical to the plain index-order sum of the whole vector — which is
// what lets the executor bucket gradients without perturbing training
// results.
func TestRingChunkCountBitIdentical(t *testing.T) {
	for _, tc := range [][2]int{{2, 1000}, {3, 997}, {5, 64}, {8, 4096}, {3, 3*sweepSpan + 7}} {
		n, size := tc[0], tc[1]
		want := rankOrderSum(randBufs(n, size, int64(n+size)))
		for _, parts := range []int{1, 2, 3, 5, 8, 200} {
			bufs := randBufs(n, size, int64(n+size))
			for p := 0; p < parts; p++ {
				lo, hi := p*size/parts, (p+1)*size/parts
				views := make([][]float64, n)
				for i := range views {
					views[i] = bufs[i][lo:hi]
				}
				NewRing(n, hi-lo).AllReduce(views)
			}
			requireAll(t, fmt.Sprintf("n=%d size=%d parts=%d", n, size, parts), bufs, want)
		}
	}
}

// BenchmarkRingAllReduce is the collective microbenchmark: one large
// all-reduce per iteration, the configuration CI smoke-tests.
func BenchmarkRingAllReduce(b *testing.B) {
	const n, size = 4, 1 << 16
	bufs := randBufs(n, size, 42)
	r := NewRing(n, size)
	b.SetBytes(int64(8 * size * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.AllReduce(bufs)
	}
}

// hierCases are the server groupings TestHierAllReduce covers, including
// uneven servers and a grouping whose first lead is not participant 0.
var hierCases = []struct {
	name   string
	groups [][]int
}{
	{"2x2", [][]int{{0, 1}, {2, 3}}},
	{"uneven", [][]int{{0, 1, 2}, {3}, {4, 5}}},
	{"3x4", [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}, {8, 9, 10, 11}}},
	{"singletons", [][]int{{0}, {1}, {2}}},
	{"interleaved", [][]int{{1, 3}, {0, 2}}},
}

func TestHierAllReduce(t *testing.T) {
	for _, tc := range hierCases {
		n := 0
		for _, g := range tc.groups {
			n += len(g)
		}
		for _, size := range append([]int{9, 17, 33, 256}, spanSizes...) {
			h := NewHier(tc.groups, nil)
			for iter := 0; iter < 3; iter++ { // reuse the same collective
				bufs := randBufs(n, size, int64(iter+7+size))
				want := hierOrderSum(tc.groups, bufs)
				h.AllReduce(bufs)
				requireAll(t, fmt.Sprintf("%s size=%d iter=%d", tc.name, size, iter), bufs, want)
			}
		}
	}
}

// scaleGroup stands in for a cross-process exchange: it multiplies the lead
// buffer by the process count, as if every other process held the same
// partial sum, or fails with err.
type scaleGroup struct {
	procs float64
	err   error
}

// AllReduce scales buf in place, or returns the configured error.
func (g scaleGroup) AllReduce(buf []float64, abort <-chan struct{}) error {
	if g.err != nil {
		return g.err
	}
	for i := range buf {
		buf[i] *= g.procs
	}
	return nil
}

// TestHierDistExchange covers the cross-process case: the local fold feeds
// the exchange and its result is copied out to every local buffer; a failed
// exchange is reported and copies nothing out.
func TestHierDistExchange(t *testing.T) {
	const n, size = 3, 3*sweepSpan + 7
	groups := [][]int{{0, 1, 2}}
	bufs := randBufs(n, size, 3)
	want := rankOrderSum(bufs)
	for i := range want {
		want[i] *= 2
	}
	if err := NewHier(groups, scaleGroup{procs: 2}).AllReduceAbort(bufs, nil); err != nil {
		t.Fatal(err)
	}
	requireAll(t, "exchange", bufs, want)

	bufs = randBufs(n, size, 4)
	last := append([]float64(nil), bufs[n-1]...)
	boom := errors.New("torn")
	if err := NewHier(groups, scaleGroup{err: boom}).AllReduceAbort(bufs, nil); !errors.Is(err, boom) {
		t.Fatalf("failed exchange returned %v, want %v", err, boom)
	}
	requireAll(t, "failed exchange", bufs[n-1:], last)
}

// TestInprocAllReduceNoAllocs pins that a warm in-process all-reduce — flat
// or hierarchical — allocates nothing: the sweep runs on the calling
// goroutine and keeps no scratch.
func TestInprocAllReduceNoAllocs(t *testing.T) {
	for _, tc := range []struct {
		name   string
		groups [][]int
		size   int
	}{
		{"2x8208", [][]int{{0}, {1}}, 8208},
		{"4x65536", [][]int{{0, 1}, {2, 3}}, 1 << 16},
		{"uneven", [][]int{{0, 1, 2}, {3}, {4, 5}}, 3*sweepSpan + 7},
	} {
		n := 0
		for _, g := range tc.groups {
			n += len(g)
		}
		bufs := randBufs(n, tc.size, 1)
		for _, c := range []struct {
			algo string
			r    *Ring
		}{{"ring", NewRing(n, tc.size)}, {"hierarchical", NewHier(tc.groups, nil)}} {
			c.r.AllReduce(bufs)
			if a := testing.AllocsPerRun(10, func() { c.r.AllReduce(bufs) }); a != 0 {
				t.Errorf("%s %s: warm AllReduce allocates %.0f per call, want 0", tc.name, c.algo, a)
			}
		}
	}
}
