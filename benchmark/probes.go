package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"time"

	"dapple"
	"dapple/internal/nn"
	"dapple/internal/tensor"
	"dapple/internal/train"
	"dapple/internal/transport"
)

// The probes time single public calls of the lower layers on the shapes the
// workloads use, each inside one harness span. They run on the benchmark
// goroutine with nothing else going on, so they are the layer's best case.

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink float64

// gradElems is hybrid_allreduce's parameter count: the vector its gradient
// collectives and optimizer work on (0.79 M elements, 6.3 MB).
func gradElems() int {
	n := 0
	for i, d := range hybridAllreduce.dims[1:] {
		n += (hybridAllreduce.dims[i] + 1) * d
	}
	return n
}

func randMatrix(rng *rand.Rand, rows, cols int) *tensor.Matrix {
	m := tensor.New(rows, cols)
	m.Randomize(rng, 1)
	return m
}

// probe times fn for one slice inside a span and returns the median seconds.
func (r *run) probe(name string, fn func()) (float64, int) {
	var s []float64
	r.tr.call(name, -1, func() { s = timeFor(probeSlice, 5, fn) })
	return median(s), len(s)
}

// probeTensor measures the GEMM variants on pipe_compute's 64x128x128
// shape, the 512-cube, the kernel pool's scaling and allocation behaviour,
// and the vector kernels on hybrid_allreduce's gradient length.
func (r *run) probeTensor() {
	rng := rand.New(rand.NewSource(r.seed))
	gflops := func(m, k, n int, s float64) float64 { return 2 * float64(m) * float64(k) * float64(n) / s / 1e9 }

	x, w, g := randMatrix(rng, 64, 128), randMatrix(rng, 128, 128), randMatrix(rng, 64, 128)
	out, dw := tensor.New(64, 128), tensor.New(128, 128)
	s, n := r.probe("tensor.MatMulInto 64x128x128", func() { tensor.MatMulInto(out, x, w) })
	r.set("tensor.gemm_nn_gflops", gflops(64, 128, 128, s), n)
	s, n = r.probe("tensor.MatMulATBAddInto 64x128x128", func() { tensor.MatMulATBAddInto(dw, x, g) })
	r.set("tensor.gemm_tn_gflops", gflops(128, 64, 128, s), n)
	s, n = r.probe("tensor.MatMulABTInto 64x128x128", func() { tensor.MatMulABTInto(out, g, w) })
	r.set("tensor.gemm_nt_gflops", gflops(64, 128, 128, s), n)

	a, b, c := randMatrix(rng, 512, 512), randMatrix(rng, 512, 512), tensor.New(512, 512)
	big := func() { tensor.MatMulInto(c, a, b) }
	prev := tensor.SetWorkers(1)
	one, _ := r.probe("tensor.MatMulInto 512^3 SetWorkers(1)", big)
	tensor.SetWorkers(runtime.GOMAXPROCS(0))
	all, n := r.probe("tensor.MatMulInto 512^3 SetWorkers(GOMAXPROCS)", big)
	r.set("tensor.gemm_nn_512_gflops", gflops(512, 512, 512, all), n)
	r.set("tensor.gemm_workers_speedup", one/all, n)
	var m1, m2 runtime.MemStats
	const calls = 20
	runtime.ReadMemStats(&m1)
	for i := 0; i < calls; i++ {
		big()
	}
	runtime.ReadMemStats(&m2)
	r.set("tensor.gemm_allocs_per_call", float64(m2.Mallocs-m1.Mallocs)/calls, calls)
	tensor.SetWorkers(prev)

	// Zero vectors: the sums stay finite however often the probe repeats.
	dst, src := make([]float64, gradElems()), make([]float64, gradElems())
	s, n = r.probe("tensor.AxpyInto+VecAddInto", func() {
		tensor.AxpyInto(dst, 0.5, src)
		tensor.VecAddInto(dst, src)
	})
	// Two calls, each reading both vectors and writing one.
	r.set("tensor.axpy_gbps", 2*3*8*float64(len(dst))/s/1e9, n)
	sink += out.Data[0] + c.Data[0] + dst[0]
}

// probeNN pushes one pipe_compute micro-batch through the whole network's
// workspace path on one goroutine, and steps the optimizer over
// hybrid_allreduce's parameters.
func (r *run) probeNN() {
	rng := rand.New(rand.NewSource(r.seed))
	net := nn.MLP(pipeCompute.dims, r.seed)
	x := randMatrix(rng, pipeCompute.rows, pipeCompute.dims[0])
	labels := make([]int, pipeCompute.rows)
	ws, wsRun := nn.NewWorkspace(), &nn.WSRun{}
	var fwdS, bwdS []float64
	r.tr.call("nn.Network.ForwardWS+BackwardWS", -1, func() {
		for i, start := 0, time.Now(); i < 6 || time.Since(start) < 2*probeSlice; i++ {
			t0 := time.Now()
			y := net.ForwardWS(ws, x, wsRun)
			t1 := time.Now()
			dy := ws.Get(y.Rows, y.Cols)
			nn.SoftmaxCrossEntropyInto(dy, y, labels)
			t2 := time.Now()
			dx := net.BackwardWS(ws, wsRun, dy)
			t3 := time.Now()
			if dx != dy {
				ws.Put(dx)
			}
			ws.Put(dy)
			if i > 0 { // the first pass fills the workspace pools
				fwdS, bwdS = append(fwdS, t1.Sub(t0).Seconds()), append(bwdS, t3.Sub(t2).Seconds())
			}
		}
	})
	r.set("nn.fwd_ms", ms(median(fwdS)), len(fwdS))
	r.set("nn.bwd_ms", ms(median(bwdS)), len(bwdS))

	params := nn.MLP(hybridAllreduce.dims, r.seed).Params()
	opt := nn.SGD{LR: 0} // a zero rate keeps the weights finite over any number of steps
	s, n := r.probe("nn.Optimizer.Step", func() { opt.Step(params) })
	r.set("nn.opt_step_ms", ms(s), n)
}

// probeStepOverhead steps a network too small to compute anything.
func (r *run) probeStepOverhead() error {
	fx, err := stepOverhead.build(r.seed)
	if err != nil {
		return err
	}
	st, err := openInproc(fx, true)
	if err != nil {
		return err
	}
	var stepErr error
	k := 0
	s, n := r.probe("train.Executor.Step (4-stage, 4-wide net)", func() {
		if _, err := st.step(k); err != nil {
			stepErr = err
		}
		k++
	})
	r.set("train.step_overhead_us", 1e6*s, n)
	return stepErr
}

// probeTransport measures the collectives and the two edge backends.
func (r *run) probeTransport() error {
	n := gradElems()
	ring := transport.NewRing(2, n)
	bufs := [][]float64{make([]float64, n), make([]float64, n)}
	s, calls := r.probe("transport.Ring.AllReduce", func() { ring.AllReduce(bufs) })
	r.set("transport.ring_allreduce_gbps", 8*float64(n)/s/1e9, calls)

	// In-process edge: a one-element view bounced off an echo goroutine.
	inproc := transport.NewInproc()
	ping, err := inproc.OpenEdge(transport.EdgeID{}, 0, 1)
	if err != nil {
		return err
	}
	pong, err := inproc.OpenEdge(transport.EdgeID{Dir: transport.Bwd}, 0, 1)
	if err != nil {
		return err
	}
	stop, echoed := make(chan struct{}), make(chan struct{})
	go echo(ping, pong, stop, echoed)
	one := tensor.New(1, 1)
	s, calls = r.probe("transport.Inproc SendView+Recv round trip", func() { roundTrip(ping, pong, one) })
	r.set("transport.inproc_edge_us", 1e6*s, calls)
	close(stop)
	<-echoed

	// TCP edges between two loopback transports.
	ctx, cancel := context.WithTimeout(context.Background(), opDeadline)
	defer cancel()
	a, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer a.Close()
	a.SetRank(0)
	b := transport.NewTCP()
	defer b.Close()
	b.SetRank(1)
	if err := b.Dial(ctx, 0, a.Addr()); err != nil {
		return err
	}
	if err := a.WaitPeers(ctx, []int{1}); err != nil {
		return err
	}
	const inflight = 8
	fwdID, bwdID := transport.EdgeID{}, transport.EdgeID{Dir: transport.Bwd}
	var ends [4]transport.Edge // a.fwd, b.fwd, a.bwd, b.bwd
	for i, open := range []struct {
		t    *transport.TCP
		id   transport.EdgeID
		peer int
	}{{a, fwdID, 1}, {b, fwdID, 0}, {a, bwdID, 1}, {b, bwdID, 0}} {
		if ends[i], err = open.t.OpenEdge(open.id, open.peer, inflight); err != nil {
			return err
		}
	}
	stop, echoed = make(chan struct{}), make(chan struct{})
	go echo(ends[1], ends[3], stop, echoed)
	s, calls = r.probe("transport.TCP SendView+Recv round trip", func() { roundTrip(ends[0], ends[2], one) })
	r.set("transport.tcp_rtt_us", 1e6*s, calls)
	close(stop)
	<-echoed

	// One-way stream of session_tcp's 256x64 activation blocks.
	block := tensor.New(sessionTCP.rows, sessionTCP.dims[0])
	const burst = 64
	var streamErr error
	s, calls = r.probe("transport.TCP one-way stream", func() {
		got := make(chan error, 1)
		go func() {
			for i := 0; i < burst; i++ {
				msg, err := ends[1].Recv(ctx.Done())
				if err != nil {
					got <- err
					return
				}
				transport.Recycle(msg.Free, msg.Data)
			}
			got <- nil
		}()
		for i := 0; i < burst; i++ {
			if err := ends[0].SendCopy(i, block); err != nil {
				streamErr = err
			}
		}
		if err := <-got; err != nil {
			streamErr = err
		}
	})
	r.set("transport.tcp_edge_mbps", burst*8*float64(len(block.Data))/s/1e6, calls)
	return streamErr
}

// echo returns every message arriving on in over out until stop closes.
func echo(in, out transport.Edge, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	for {
		msg, err := in.Recv(stop)
		if err != nil {
			return
		}
		if out.SendCopy(msg.M, msg.Data) != nil {
			return
		}
		transport.Recycle(msg.Free, msg.Data)
	}
}

// roundTrip sends m out and waits for the echo.
func roundTrip(out, back transport.Edge, m *tensor.Matrix) {
	if out.SendView(0, m) != nil {
		return
	}
	if msg, err := back.Recv(nil); err == nil {
		transport.Recycle(msg.Free, msg.Data)
	}
}

// probeCheckpoint saves, encodes and decodes hybrid_allreduce's state.
func (r *run) probeCheckpoint() error {
	net := nn.MLP(hybridAllreduce.dims, r.seed)
	ck := train.CaptureCheckpoint(1, net, nn.SGD{LR: 0.05})
	var buf []byte
	s, n := r.probe("checkpoint.EncodeCheckpoint", func() { buf = train.EncodeCheckpoint(ck) })
	r.set("checkpoint.encode_mbps", float64(len(buf))/s/1e6, n)
	var decErr error
	s, n = r.probe("checkpoint.DecodeCheckpoint", func() {
		if _, err := train.DecodeCheckpoint(buf); err != nil {
			decErr = err
		}
	})
	r.set("checkpoint.decode_mbps", float64(len(buf))/s/1e6, n)
	dir, err := os.MkdirTemp(r.outDir, "ckpt-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	var saveErr error
	s, n = r.probe("checkpoint.SaveCheckpoint", func() {
		if _, err := train.SaveCheckpoint(dir, ck); err != nil {
			saveErr = err
		}
	})
	r.set("checkpoint.save_ms", ms(s), n)
	if decErr != nil {
		return decErr
	}
	return saveErr
}

// probePredErr closes the paper's plan-then-run loop on the pipe_compute
// network: profile it by measurement, plan it, execute the chosen plan, and
// compare the planner's analytic estimate and the simulator's makespan with
// the measured step. Recorded, not gated.
func (r *run) probePredErr() error {
	ctx, cancel := context.WithTimeout(context.Background(), opDeadline)
	defer cancel()
	s := pipeCompute
	net := nn.MLP(s.dims, r.seed)
	var pr *dapple.PlanResult
	var err error
	r.tr.call("planner.ProfileNetworkMeasured+Plan", -1, func() {
		var mod *dapple.Model
		if mod, err = dapple.ProfileNetworkMeasured(ctx, "pipe_compute_measured", net, s.dims[0], s.rows, s.rows*s.m, dapple.MeasureOptions{}); err != nil {
			return
		}
		var eng *dapple.Engine
		if eng, err = dapple.NewEngine(dapple.WithCluster(s.cluster)); err != nil {
			return
		}
		pr, err = eng.Plan(ctx, mod)
	})
	if !r.op(err) {
		return nil
	}
	fx, err := s.build(r.seed)
	if err != nil {
		return err
	}
	fx.name, fx.plan, fx.stages = "pipe_compute_planned", pr.Plan, pr.Plan.Stages
	fx.policy, fx.recompute = pr.Policy, pr.NeedsRecompute
	st, _, err := openWarm(fx, true)
	if err != nil {
		return err
	}
	steps, _ := r.timedSteps(st, warmups, 15, 0)
	if len(steps) == 0 {
		return nil
	}
	measured := median(steps)
	// Absolute errors, so that lower is better; the line below has the signs.
	r.set("planner.pred_err_pct", 100*math.Abs(pr.Analytic-measured)/measured, len(steps))
	r.set("sim.pred_err_pct", 100*math.Abs(pr.Latency-measured)/measured, len(steps))
	fmt.Printf("\nplan-then-run on the pipe_compute net: planner chose %v; analytic %.3f ms, simulated %.3f ms, measured %.3f ms\n",
		pr.Plan, ms(pr.Analytic), ms(pr.Latency), ms(measured))
	return nil
}
