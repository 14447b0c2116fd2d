package train

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"dapple/internal/core"
	"dapple/internal/hardware"
	"dapple/internal/nn"
	"dapple/internal/schedule"
	"dapple/internal/tensor"
)

// makeMicros builds m deterministic micro-batches of rows x in features.
func makeMicros(m, rows, in, classes int, seed int64) []Batch {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Batch, m)
	for i := range out {
		x := tensor.New(rows, in)
		x.Randomize(rng, 1)
		y := make([]int, rows)
		for j := range y {
			y[j] = rng.Intn(classes)
		}
		out[i] = Batch{X: x, Y: y}
	}
	return out
}

// TestRingAllReduceSums checks the executor's in-process ring path: every
// replica of a single-server group arriving at its arGroup leaves each
// buffer holding the element-wise sum.
func TestRingAllReduceSums(t *testing.T) {
	for _, n := range []int{2, 3, 4, 7} {
		for _, size := range []int{1, 5, 16, 31} {
			bufs := make([][]float64, n)
			want := make([]float64, size)
			for i := range bufs {
				bufs[i] = make([]float64, size)
				for j := range bufs[i] {
					bufs[i][j] = float64(i*1000 + j)
					want[j] += bufs[i][j]
				}
			}
			if algo := groupAllReduce(bufs); algo != "ring" {
				t.Fatalf("n=%d: group chose %q, want ring", n, algo)
			}
			for i := range bufs {
				for j := range bufs[i] {
					if math.Abs(bufs[i][j]-want[j]) > 1e-9 {
						t.Fatalf("n=%d size=%d rank %d[%d]: %g want %g",
							n, size, i, j, bufs[i][j], want[j])
					}
				}
			}
		}
	}
}

// Property: the executor's ring all-reduce equals a serial sum for random
// shapes.
func TestRingAllReduceProperty(t *testing.T) {
	f := func(n8, size8 uint8, seed int64) bool {
		n := int(n8%6) + 2
		size := int(size8%64) + 1
		rng := rand.New(rand.NewSource(seed))
		bufs := make([][]float64, n)
		want := make([]float64, size)
		for i := range bufs {
			bufs[i] = make([]float64, size)
			for j := range bufs[i] {
				bufs[i][j] = rng.NormFloat64()
				want[j] += bufs[i][j]
			}
		}
		if groupAllReduce(bufs) != "ring" {
			return false
		}
		for i := range bufs {
			for j := range bufs[i] {
				if math.Abs(bufs[i][j]-want[j]) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// groupAllReduce sums bufs in place through one step of a one-bucket
// arGroup whose replicas sit one per ConfigB server, one goroutine per
// replica, and returns the collective the group chose.
func groupAllReduce(bufs [][]float64) string {
	n := len(bufs)
	devs := make([]hardware.DeviceID, n)
	for i := range devs {
		devs[i] = hardware.DeviceID(i)
	}
	g := newARGroup(n, hardware.ConfigB(n), devs, false)
	spec := bucketSpec{LayerLo: 0, LayerHi: 1, Off: 0, End: len(bufs[0])}
	if err := g.initBuckets(1, []bucketSpec{spec}, bufs, nil); err != nil {
		panic(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		g.runComm(nil)
	}()
	for r := range bufs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g.arriveBucket(r, 0)
			g.waitBuckets()
		}()
	}
	wg.Wait()
	return g.algo
}

// TestDataParallelMatchesSequential is the DP half of the paper's convergence
// claim: a single-stage plan replicated on four devices, synchronized by ring
// all-reduce, produces the same parameters as sequential gradient
// accumulation, and its replicas stay bit-identical to each other.
func TestDataParallelMatchesSequential(t *testing.T) {
	master := nn.MLP([]int{6, 10, 8, 3}, 42)
	micros := makeMicros(8, 4, 6, 3, 7)
	p := mkPlan(t, master, 6, 4, 8, []int{master.NumLayers()}, []int{4})

	seq := master.Clone()
	seqLoss, err := SequentialStep(seq, micros, nn.SGD{LR: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	ex, err := NewExecutor(p, master, func() nn.Optimizer { return nn.SGD{LR: 0.1} },
		ExecOptions{Policy: schedule.DapplePA})
	if err != nil {
		t.Fatal(err)
	}
	if algo := ex.AllReduceAlgo(0); algo != "ring" {
		t.Fatalf("replicas synchronized by %q, want ring", algo)
	}
	res, err := ex.Step(micros)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(seqLoss-res.Loss) > 1e-9 {
		t.Fatalf("loss: sequential %g vs DP %g", seqLoss, res.Loss)
	}
	base := ex.StageParams(0, 0)
	for r := 1; r < 4; r++ {
		for i, prm := range ex.StageParams(0, r) {
			if d := tensor.MaxAbsDiff(prm.W, base[i].W); d > 0 {
				t.Fatalf("replica %d param %d diverged from replica 0 by %g", r, i, d)
			}
		}
	}
	requireStagesMatch(t, ex, p, seq)
}

// TestPipelineMatchesSequential is the core equivalence result (§VI-A "all
// pipeline latency optimizations give equivalent gradients") held across
// consecutive steps: one long-lived executor per DAPPLE or GPipe pipeline,
// with and without re-computation and stage replication, tracks sequential
// training step after step (up to float summation order), so nothing it
// reuses between steps — stashes, workspaces, gradient buffers — leaks into
// the next step's gradients.
func TestPipelineMatchesSequential(t *testing.T) {
	dapple := schedule.DapplePA
	cases := []struct {
		name      string
		cuts      []int
		reps      []int
		pol       schedule.Policy
		recompute bool
	}{
		{"dapple-2stage", []int{3, 5}, []int{1, 1}, dapple, false},
		{"dapple-3stage", []int{2, 4, 5}, []int{1, 1, 1}, dapple, false},
		{"gpipe-2stage", []int{3, 5}, []int{1, 1}, schedule.GPipe, false},
		{"dapple-recompute", []int{3, 5}, []int{1, 1}, dapple, true},
		{"gpipe-recompute", []int{2, 5}, []int{1, 1}, schedule.GPipe, true},
		{"dapple-replicated", []int{3, 5}, []int{2, 1}, dapple, false},
		{"dapple-hybrid", []int{3, 5}, []int{2, 3}, dapple, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			master := nn.MLP([]int{6, 12, 10, 3}, 2024) // 5 layers: D,R,D,R,D
			p := mkPlan(t, master, 6, 6, 6, tc.cuts, tc.reps)
			ex, err := NewExecutor(p, master, func() nn.Optimizer { return nn.SGD{LR: 0.05} },
				ExecOptions{Policy: tc.pol, Recompute: tc.recompute})
			if err != nil {
				t.Fatal(err)
			}
			seq := master.Clone()
			for step := 0; step < 3; step++ {
				micros := makeMicros(6, 6, 6, 3, int64(11+step))
				seqLoss, err := SequentialStep(seq, micros, nn.SGD{LR: 0.05})
				if err != nil {
					t.Fatal(err)
				}
				res, err := ex.Step(micros)
				if err != nil {
					t.Fatal(err)
				}
				if math.Abs(res.Loss-seqLoss) > 1e-9 {
					t.Fatalf("step %d loss: sequential %g vs pipeline %g", step, seqLoss, res.Loss)
				}
				requireStagesMatch(t, ex, p, seq)
			}
		})
	}
}

// TestPipelineMemoryBound verifies the Fig. 3(c) claim on every stage of a
// three-stage pipeline: GPipe stashes all M micro-batches everywhere, DAPPLE
// exactly stage i's warmup depth K_i = S - i and fewer bytes than GPipe,
// and both schedules compute the same loss.
func TestPipelineMemoryBound(t *testing.T) {
	master := nn.MLP([]int{4, 8, 8, 2}, 3) // 5 layers
	micros := makeMicros(12, 4, 4, 2, 5)
	cuts := []int{1, 3, 5}

	gs := stepStraight(t, master, micros, cuts, schedule.GPipe)
	ds := stepStraight(t, master, micros, cuts, schedule.DapplePA)
	for i := range cuts {
		if gs.MaxStash[i] != len(micros) {
			t.Fatalf("GPipe stage %d stash %d, want %d", i, gs.MaxStash[i], len(micros))
		}
		if k := len(cuts) - i; ds.MaxStash[i] != k {
			t.Fatalf("DAPPLE stage %d stash %d, want %d", i, ds.MaxStash[i], k)
		}
		if ds.MaxStashBytes[i] >= gs.MaxStashBytes[i] {
			t.Fatalf("stage %d: DAPPLE stash bytes %d not below GPipe %d", i, ds.MaxStashBytes[i], gs.MaxStashBytes[i])
		}
	}
	if math.Abs(gs.Loss-ds.Loss) > 1e-9 {
		t.Fatalf("losses differ: %g vs %g", gs.Loss, ds.Loss)
	}
}

// TestPipelineConvergence trains an unreplicated two-stage DAPPLE pipeline
// end to end on separable data.
func TestPipelineConvergence(t *testing.T) {
	master := nn.MLP([]int{2, 16, 2}, 17) // 3 layers
	p := mkPlan(t, master, 2, 16, 4, []int{2, 3}, []int{1, 1})
	ex, err := NewExecutor(p, master, func() nn.Optimizer { return nn.NewAdam(5e-3) },
		ExecOptions{Policy: schedule.DapplePA, NoTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	requireConverges(t, ex, separableMicros(31))
}

// Property: two-stage DAPPLE pipelines match sequential training across
// random cut points and micro-batch counts.
func TestPipelineEquivalenceProperty(t *testing.T) {
	f := func(seed int64, cut8, m8 uint8) bool {
		cut := int(cut8%4) + 1 // 1..4 of 5 layers
		m := int(m8%6) + 2     // 2..7 micro-batches
		master := nn.MLP([]int{5, 9, 7, 3}, seed)
		p := mkPlan(t, master, 5, 5, m, []int{cut, 5}, []int{1, 1})
		checkAgainstSequential(t, master, p, makeMicros(m, 5, 5, 3, seed+1),
			ExecOptions{Policy: schedule.DapplePA})
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestPipelineConfigValidation: the executor refuses pipeline shapes it
// cannot run — no stages, stages that do not cover the network, a device on
// two stages, a stage with no replicas.
func TestPipelineConfigValidation(t *testing.T) {
	master := nn.MLP([]int{2, 2, 2}, 1) // 3 layers
	optf := func() nn.Optimizer { return nn.SGD{LR: 0.1} }
	good := mkPlan(t, master, 2, 2, 2, []int{1, 3}, []int{1, 1})
	with := func(stages ...core.Stage) *core.Plan {
		p := *good
		p.Stages = stages
		return &p
	}
	on := func(ids ...hardware.DeviceID) []hardware.DeviceID { return ids }
	cases := []struct {
		what string
		p    *core.Plan
	}{
		{"no stages", with()},
		{"cuts do not cover network", with(core.Stage{Lo: 0, Hi: 2, Devices: on(0)})},
		{"device on two stages", with(core.Stage{Lo: 0, Hi: 1, Devices: on(0)}, core.Stage{Lo: 1, Hi: 3, Devices: on(0)})},
		{"zero replicas", with(core.Stage{Lo: 0, Hi: 1, Devices: on()}, core.Stage{Lo: 1, Hi: 3, Devices: on(1)})},
	}
	for _, tc := range cases {
		if _, err := NewExecutor(tc.p, master, optf, ExecOptions{}); err == nil {
			t.Fatalf("expected error: %s", tc.what)
		}
	}
	if _, err := NewExecutor(good, master, optf, ExecOptions{}); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
}

func TestSequentialStepErrors(t *testing.T) {
	net := nn.MLP([]int{2, 2}, 1)
	if _, err := SequentialStep(net, nil, nn.SGD{LR: 0.1}); err == nil {
		t.Fatal("expected error on empty micro-batches")
	}
	bad := []Batch{{X: tensor.New(2, 2), Y: []int{0}}}
	if _, err := SequentialStep(net, bad, nn.SGD{LR: 0.1}); err == nil {
		t.Fatal("expected error on label/row mismatch")
	}
}

// TestBadBatchRejected: a micro-batch whose feature width is not the
// network's input width, or whose labels fall outside [0, classes), is an
// error from both runtimes instead of a kernel or index panic on a device
// goroutine, which would take the whole process down. The bad batch comes
// second, so SequentialStep must reject it before touching any gradient, and
// the executor must stay usable afterwards.
func TestBadBatchRejected(t *testing.T) {
	master := nn.MLP([]int{4, 6, 3}, 1) // 3 layers: 4 features, 3 classes
	p := mkPlan(t, master, 4, 2, 2, []int{1, 3}, []int{1, 1})
	cases := []struct {
		name    string
		corrupt func(b *Batch)
	}{
		{"wrong-width", func(b *Batch) { b.X = tensor.New(2, 5) }},
		{"label-negative", func(b *Batch) { b.Y[1] = -1 }},
		{"label-equals-classes", func(b *Batch) { b.Y[0] = 3 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			micros := makeMicros(2, 2, 4, 3, 5)
			tc.corrupt(&micros[1])

			seq := master.Clone()
			if _, err := SequentialStep(seq, micros, nn.SGD{LR: 0.1}); err == nil {
				t.Fatal("SequentialStep accepted the batch")
			}
			for i, prm := range seq.Params() {
				for _, g := range prm.G.Data {
					if g != 0 {
						t.Fatalf("rejected step left a gradient in param %d", i)
					}
				}
			}

			ex, err := NewExecutor(p, master, func() nn.Optimizer { return nn.SGD{LR: 0.1} }, ExecOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ex.Step(micros); err == nil {
				t.Fatal("executor accepted the batch")
			}
			if _, err := ex.Step(makeMicros(2, 2, 4, 3, 5)); err != nil {
				t.Fatalf("executor unusable after a rejected batch: %v", err)
			}
		})
	}
}
