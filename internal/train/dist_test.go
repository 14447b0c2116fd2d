package train

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"dapple/internal/core"
	"dapple/internal/hardware"
	"dapple/internal/nn"
	"dapple/internal/schedule"
	"dapple/internal/transport"
)

// distFixture is a 3-stage plan on a 2-server × 2-GPU cluster placed so a
// 2-worker session exercises every distributed code path at once:
//
//	stage 0: dev 0           (rank 0)           — unreplicated
//	stage 1: devs 1, 2       (ranks 0 and 1)    — replica group spans ranks
//	stage 2: dev 3           (rank 1)           — last stage remote from rank 0
//
// Cut 0 has an in-process edge (0→1 on rank 0) and a TCP edge (0→2 across
// ranks); cut 1 has a TCP edge (1→3) and an in-process edge (2→3 on rank 1);
// stage 1's gradients synchronize through the cross-process hierarchical
// exchange.
func distFixture(t *testing.T) (*core.Plan, *nn.Network, []int, []Batch, []Batch, []Batch) {
	t.Helper()
	master := nn.MLP([]int{16, 24, 24, 24, 8}, 7) // 7 layers
	const rows, m, inDim = 8, 4, 16
	mod, err := ProfileNetwork("dist-net", master, inDim, rows, rows*m)
	if err != nil {
		t.Fatal(err)
	}
	c := hardware.ConfigA(2)
	c.GPUsPerServer = 2 // 2 servers × 2 GPUs: devices 0,1 | 2,3
	p := &core.Plan{
		Model: mod, Cluster: c,
		Stages: []core.Stage{
			{Lo: 0, Hi: 3, Devices: []hardware.DeviceID{0}},
			{Lo: 3, Hi: 5, Devices: []hardware.DeviceID{1, 2}},
			{Lo: 5, Hi: 7, Devices: []hardware.DeviceID{3}},
		},
		GBS: rows * m, MicroBatch: rows,
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	deviceRanks := []int{0, 0, 1, 1} // one worker process per server
	rng := rand.New(rand.NewSource(3))
	proj := NewQuadrantProblem(rng, inDim)
	b0 := QuadrantBatches(rng, proj, m, rows)
	b1 := QuadrantBatches(rng, proj, m, rows)
	b2 := QuadrantBatches(rng, proj, m, rows)
	return p, master, deviceRanks, b0, b1, b2
}

// sessionMesh wires the 2-workers + coordinator loopback mesh: workers on
// ranks 0 and 1 (rank 1 dials rank 0), coordinator on rank 2 dialing both.
func sessionMesh(t *testing.T) (w0, w1, coord *transport.TCP) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	var err error
	if w0, err = transport.ListenTCP("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if w1, err = transport.ListenTCP("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	w0.SetRank(0)
	w1.SetRank(1)
	coord = transport.NewTCP()
	coord.SetRank(2)
	t.Cleanup(func() { w0.Close(); w1.Close(); coord.Close() })
	if err := w1.Dial(ctx, 0, w0.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := coord.Dial(ctx, 0, w0.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := coord.Dial(ctx, 1, w1.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := w0.WaitPeers(ctx, []int{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := w1.WaitPeers(ctx, []int{0, 2}); err != nil {
		t.Fatal(err)
	}
	return w0, w1, coord
}

// TestDistributedSessionMatchesSingleProcess runs the full coordinator/worker
// protocol over real TCP loopback — manifest, weight broadcast, three gated
// steps, shutdown — and checks every step's distributed loss against the
// single-process executor on identical weights and data.
func TestDistributedSessionMatchesSingleProcess(t *testing.T) {
	p, master, deviceRanks, b0, b1, b2 := distFixture(t)
	iters := [][]Batch{b0, b1, b2}

	// Single-process reference on a deep copy of the initial weights.
	ref, err := NewExecutor(p, master.Clone(), func() nn.Optimizer { return nn.SGD{LR: 0.05} },
		ExecOptions{Policy: schedule.DapplePA, NoTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, len(iters))
	for k, micros := range iters {
		res, err := ref.Step(micros)
		if err != nil {
			t.Fatal(err)
		}
		want[k] = res.Loss
	}

	w0t, w1t, ct := sessionMesh(t)
	workers := []*Worker{NewWorker(w0t, 0), NewWorker(w1t, 1)}
	served := make(chan error, len(workers))
	for _, w := range workers {
		go func(w *Worker) { served <- w.Serve(context.Background()) }(w)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	coord, err := NewCoordinator(ctx, ct, p, master, OptSpec{Kind: "sgd", LR: 0.05},
		ExecOptions{Policy: schedule.DapplePA}, deviceRanks, len(workers))
	if err != nil {
		t.Fatal(err)
	}
	for k, micros := range iters {
		loss, err := coord.Step(ctx, micros)
		if err != nil {
			t.Fatalf("distributed step %d: %v", k, err)
		}
		if math.Abs(loss-want[k]) > 1e-6 {
			t.Fatalf("step %d: distributed loss %.12f vs single-process %.12f (drift %.3g)",
				k, loss, want[k], math.Abs(loss-want[k]))
		}
	}

	// The spanning stage must have picked the cross-process hierarchical
	// exchange on both ranks; unreplicated stages synchronize nothing.
	for r, w := range workers {
		if algo := w.Executor().AllReduceAlgo(1); algo != "hierarchical" {
			t.Errorf("rank %d stage 1 all-reduce %q, want hierarchical", r, algo)
		}
	}
	if algo := workers[0].Executor().AllReduceAlgo(0); algo != "none" {
		t.Errorf("rank 0 stage 0 all-reduce %q, want none", algo)
	}
	if algo := workers[0].Executor().AllReduceAlgo(2); algo != "" {
		t.Errorf("rank 0 stage 2 all-reduce %q, want \"\" (not hosted)", algo)
	}

	if err := coord.Close(); err != nil {
		t.Fatal(err)
	}
	for range workers {
		select {
		case err := <-served:
			if err != nil {
				t.Fatalf("worker serve: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("worker never shut down")
		}
	}
}

// TestDistributedWorkerFailureFailsStop injects a failing step (micro-batch
// rows below stage 1's replica count) and checks the whole session dies
// fail-stop: the coordinator reports the abort and later steps fail fast.
func TestDistributedWorkerFailureFailsStop(t *testing.T) {
	p, master, deviceRanks, b0, _, _ := distFixture(t)
	w0t, w1t, ct := sessionMesh(t)
	workers := []*Worker{NewWorker(w0t, 0), NewWorker(w1t, 1)}
	served := make(chan error, len(workers))
	for _, w := range workers {
		go func(w *Worker) { served <- w.Serve(context.Background()) }(w)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	coord, err := NewCoordinator(ctx, ct, p, master, OptSpec{Kind: "sgd", LR: 0.05},
		ExecOptions{Policy: schedule.DapplePA}, deviceRanks, len(workers))
	if err != nil {
		t.Fatal(err)
	}
	bad := make([]Batch, len(b0))
	for i, b := range b0 {
		bad[i] = Batch{X: b.X.RowSlice(0, 1), Y: b.Y[:1]} // 1 row < 2 replicas
	}
	if _, err := coord.Step(ctx, bad); err == nil {
		t.Fatal("poisoned step succeeded")
	}
	if _, err := coord.Step(ctx, b0); err == nil {
		t.Fatal("step after session failure succeeded")
	}
	for range workers {
		select {
		case err := <-served:
			if err == nil {
				t.Fatal("worker survived a fail-stop session")
			}
		case <-time.After(10 * time.Second):
			t.Fatal("worker never exited after session failure")
		}
	}
}

// TestHierarchicalSelection checks the topology rule on single-process
// executors: a replica group co-locating ≥2 replicas on each of ≥2 servers
// picks the paper's hierarchical all-reduce, while a flat one-GPU-per-server
// cluster keeps the plain ring.
func TestHierarchicalSelection(t *testing.T) {
	master := nn.MLP([]int{16, 24, 8}, 5) // 3 layers
	const rows, m, inDim = 8, 2, 16
	mod, err := ProfileNetwork("hier-net", master, inDim, rows, rows*m)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		c    hardware.Cluster
		devs []hardware.DeviceID
		want string
	}{
		{"two-servers-two-each", hardware.ConfigA(2), []hardware.DeviceID{0, 1, 8, 9}, "hierarchical"},
		{"flat-one-per-server", hardware.ConfigB(4), []hardware.DeviceID{0, 1, 2, 3}, "ring"},
		{"single-server", hardware.ConfigA(1), []hardware.DeviceID{0, 1, 2, 3}, "ring"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := &core.Plan{
				Model: mod, Cluster: tc.c,
				Stages: []core.Stage{{Lo: 0, Hi: 3, Devices: tc.devs}},
				GBS:    rows * m, MicroBatch: rows,
			}
			if err := p.Validate(); err != nil {
				t.Fatal(err)
			}
			ex, err := NewExecutor(p, master.Clone(), func() nn.Optimizer { return nn.SGD{LR: 0.1} },
				ExecOptions{Policy: schedule.GPipe, NoTrace: true})
			if err != nil {
				t.Fatal(err)
			}
			if algo := ex.AllReduceAlgo(0); algo != tc.want {
				t.Fatalf("selected %q, want %q", algo, tc.want)
			}
			// The choice must not change the math: one step must match the
			// sequential reference to float tolerance.
			rng := rand.New(rand.NewSource(11))
			proj := NewQuadrantProblem(rng, inDim)
			micros := QuadrantBatches(rng, proj, m, rows)
			wantLoss, err := SequentialStep(master.Clone(), micros, nn.SGD{LR: 0.1})
			if err != nil {
				t.Fatal(err)
			}
			res, err := ex.Step(micros)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(res.Loss-wantLoss) > 1e-9 {
				t.Fatalf("loss %.12f vs sequential %.12f", res.Loss, wantLoss)
			}
		})
	}
}

// TestDistributedAPIRoundTrip drives the distributed surface end to end the
// way cmd/dapple does: a one-worker session over TCP loopback must train to
// the same losses as the single-process Executor on identical weights and
// batches.
func TestDistributedAPIRoundTrip(t *testing.T) {
	master := nn.MLP([]int{8, 12, 12, 4}, 3) // 5 layers
	const rows, m, inDim = 6, 2, 8
	mod, err := ProfileNetwork("dist-api", master, inDim, rows, rows*m)
	if err != nil {
		t.Fatal(err)
	}
	plan := &core.Plan{
		Model:   mod,
		Cluster: hardware.ConfigA(1),
		Stages: []core.Stage{
			{Lo: 0, Hi: 3, Devices: []hardware.DeviceID{0}},
			{Lo: 3, Hi: 5, Devices: []hardware.DeviceID{1, 2}},
		},
		GBS: rows * m, MicroBatch: rows,
	}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	micros := makeMicros(m, rows, inDim, 4, 1)

	ref, err := NewExecutor(plan, master.Clone(),
		func() nn.Optimizer { return nn.SGD{LR: 0.05} }, ExecOptions{NoTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, 3)
	for k := range want {
		res, err := ref.Step(micros)
		if err != nil {
			t.Fatal(err)
		}
		want[k] = res.Loss
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	wt, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer wt.Close()
	wt.SetRank(0)
	ct := transport.NewTCP()
	defer ct.Close()
	ct.SetRank(1)
	if err := ct.Dial(ctx, 0, wt.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := wt.WaitPeers(ctx, []int{1}); err != nil {
		t.Fatal(err)
	}

	served := make(chan error, 1)
	go func() { served <- NewWorker(wt, 0).Serve(context.Background()) }()

	coord, err := NewCoordinator(ctx, ct, plan, master,
		OptSpec{Kind: "sgd", LR: 0.05}, ExecOptions{},
		make([]int, plan.Cluster.NumDevices()), 1) // every device on rank 0
	if err != nil {
		t.Fatal(err)
	}
	for k := range want {
		loss, err := coord.Step(ctx, micros)
		if err != nil {
			t.Fatalf("distributed step %d: %v", k, err)
		}
		if math.Abs(loss-want[k]) > 1e-6 {
			t.Fatalf("step %d: distributed loss %.12f vs local %.12f", k, loss, want[k])
		}
	}
	if err := coord.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-served; err != nil {
		t.Fatalf("worker serve: %v", err)
	}
}
