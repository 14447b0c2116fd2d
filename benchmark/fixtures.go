package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"dapple/internal/core"
	"dapple/internal/hardware"
	"dapple/internal/nn"
	"dapple/internal/schedule"
	"dapple/internal/train"
)

// opDeadline bounds every single operation the benchmark issues — a step, a
// plan call, a handshake, a recovery, a close. A miss is a failed operation,
// never a stuck benchmark.
const opDeadline = 10 * time.Second

// stepBatches is how many distinct step batches set-up generates; the timed
// loop cycles through them so data generation is never timed.
const stepBatches = 16

// warmups is the number of untimed steps that end set-up. They are also the
// three steps whose losses are checked against sequential training.
const warmups = 3

// lossTol is the largest accepted |loss - SequentialStep loss|.
const lossTol = 1e-6

// shape is the fixed geometry of one training workload: everything but the
// seed. Shapes are the benchmark's definition and do not change with flags.
type shape struct {
	name        string
	dims        []int
	cluster     hardware.Cluster
	stages      []core.Stage
	rows, m     int
	policy      schedule.Policy
	recompute   bool
	opt         train.OptSpec
	deviceRanks []int // session workloads: hosting rank of each device
}

// pipeline lays consecutive single-device groups of repl replicas over the
// layer cuts (each cut is a stage's exclusive upper layer bound).
func pipeline(cuts []int, repl int) []core.Stage {
	stages := make([]core.Stage, len(cuts))
	lo, dev := 0, 0
	for i, hi := range cuts {
		devs := make([]hardware.DeviceID, repl)
		for r := range devs {
			devs[r] = hardware.DeviceID(dev)
			dev++
		}
		stages[i] = core.Stage{Lo: lo, Hi: hi, Devices: devs}
		lo = hi
	}
	return stages
}

func wide(width, n, out int) []int {
	dims := make([]int, n+1)
	for i := range dims {
		dims[i] = width
	}
	dims[n] = out
	return dims
}

// twoGPUServers is internal/train's distFixture cluster: servers of two GPUs.
func twoGPUServers(servers int) hardware.Cluster {
	c := hardware.ConfigA(servers)
	c.GPUsPerServer = 2
	return c
}

var (
	sgd = train.OptSpec{Kind: "sgd", LR: 0.05}

	// pipeCompute is compute-bound: 9 Dense(128) layers, 64-row micro-batches.
	pipeCompute = shape{
		name: "pipe_compute", dims: wide(128, 9, 16), cluster: hardware.ConfigB(4),
		stages: pipeline([]int{5, 9, 13, 17}, 1), rows: 64, m: 8,
		policy: schedule.DapplePA, opt: sgd,
	}
	// hybridAllreduce is gradient-sync-bound: 6.3 MB of gradients, tiny GEMMs.
	hybridAllreduce = shape{
		name: "hybrid_allreduce", dims: []int{512, 512, 512, 512, 16}, cluster: hardware.ConfigB(4),
		stages: pipeline([]int{3, 7}, 2), rows: 8, m: 4,
		policy: schedule.DapplePA, opt: sgd,
	}
	// sessionTCP puts every stage boundary on a loopback socket.
	sessionTCP = shape{
		name: "session_tcp", dims: []int{64, 64, 64, 64, 16}, cluster: hardware.ConfigB(4),
		stages: pipeline([]int{2, 4, 6, 7}, 1), rows: 256, m: 8,
		policy: schedule.DapplePA, opt: sgd, deviceRanks: []int{0, 1, 0, 1},
	}
	// sessionRecover is distFixture's 3-stage/2-rank plan, scaled up.
	sessionRecover = shape{
		name: "session_recover", dims: []int{64, 96, 96, 96, 8}, cluster: twoGPUServers(2),
		stages: []core.Stage{
			{Lo: 0, Hi: 3, Devices: []hardware.DeviceID{0}},
			{Lo: 3, Hi: 5, Devices: []hardware.DeviceID{1, 2}},
			{Lo: 5, Hi: 7, Devices: []hardware.DeviceID{3}},
		},
		rows: 32, m: 4, policy: schedule.DapplePA,
		opt:         train.OptSpec{Kind: "momentum", LR: 0.05, Beta: 0.9},
		deviceRanks: []int{0, 0, 1, 1},
	}
	// stepOverhead is a net too small to compute anything: what is left is
	// the executor's fixed per-step hand-off cost.
	stepOverhead = shape{
		name: "step_overhead", dims: []int{4, 4, 4, 4, 4}, cluster: hardware.ConfigB(4),
		stages: pipeline([]int{2, 4, 6, 7}, 1), rows: 1, m: 8,
		policy: schedule.DapplePA, opt: sgd,
	}
)

// pipeGPipeRC is pipeCompute under the paper's GPipe baseline: flood order,
// all-M stash, forward re-run in backward.
func pipeGPipeRC() shape {
	s := pipeCompute
	s.name, s.policy, s.recompute = "pipe_gpipe_rc", schedule.GPipe, true
	return s
}

// fixture is a shape instantiated from a seed: initial weights, the hand
// plan, and the step batches.
type fixture struct {
	shape
	net     *nn.Network
	plan    *core.Plan
	batches [][]train.Batch
}

// build makes the fixture's inputs from the seed alone.
func (s shape) build(seed int64) (*fixture, error) {
	net := nn.MLP(s.dims, seed)
	mod, err := train.ProfileNetwork(s.name, net, s.dims[0], s.rows, s.rows*s.m)
	if err != nil {
		return nil, err
	}
	p := &core.Plan{Model: mod, Cluster: s.cluster, Stages: s.stages, GBS: s.rows * s.m, MicroBatch: s.rows}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", s.name, err)
	}
	rng := rand.New(rand.NewSource(seed + 1))
	proj := train.NewQuadrantProblem(rng, s.dims[0])
	batches := make([][]train.Batch, stepBatches)
	for i := range batches {
		batches[i] = train.QuadrantBatches(rng, proj, s.m, s.rows)
	}
	return &fixture{shape: s, net: net, plan: p, batches: batches}, nil
}

func (fx *fixture) batch(step int) []train.Batch { return fx.batches[step%len(fx.batches)] }

func (fx *fixture) samplesPerStep() int { return fx.rows * fx.m }

func (fx *fixture) devices() int {
	n := 0
	for _, st := range fx.stages {
		n += len(st.Devices)
	}
	return n
}

func (fx *fixture) execOptions(noTrace bool) train.ExecOptions {
	return train.ExecOptions{Policy: fx.policy, Recompute: fx.recompute, NoTrace: noTrace}
}

// newExecutor builds an in-process executor of the fixture's plan on a clone
// of its initial weights.
func (fx *fixture) newExecutor(noTrace bool) (*train.Executor, error) {
	factory, err := fx.opt.Factory()
	if err != nil {
		return nil, err
	}
	return train.NewExecutor(fx.plan, fx.net.Clone(), factory, fx.execOptions(noTrace))
}

// execStep runs one in-process step under the operation deadline.
func execStep(ex *train.Executor, micros []train.Batch) (*train.ExecResult, error) {
	ctx, cancel := context.WithTimeout(context.Background(), opDeadline)
	defer cancel()
	return ex.StepContext(ctx, micros)
}

// sequentialLosses trains a clone of the initial weights one micro-batch at
// a time on a single goroutine — the ground truth every schedule must match
// — and returns the loss of each of the first n steps.
func (fx *fixture) sequentialLosses(n int) ([]float64, error) {
	factory, err := fx.opt.Factory()
	if err != nil {
		return nil, err
	}
	net, opt := fx.net.Clone(), factory()
	out := make([]float64, n)
	for k := range out {
		if out[k], err = train.SequentialStep(net, fx.batch(k), opt); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// lossDrift is the largest |got - want| over the common prefix.
func lossDrift(got, want []float64) float64 {
	d := 0.0
	for i := range min(len(got), len(want)) {
		d = max(d, math.Abs(got[i]-want[i]))
	}
	return d
}

// peakStash is the largest stashed-activation volume any stage held.
func peakStash(res *train.ExecResult) int64 {
	var peak int64
	for _, b := range res.MaxStashBytes {
		peak = max(peak, b)
	}
	return peak
}

// stepFLOPs counts the useful multiply-adds of one training step as FLOPs:
// per Dense layer one forward and two backward GEMMs of 2*rows*in*out each,
// times M micro-batches. Re-computed forwards are not counted.
func (fx *fixture) stepFLOPs() float64 {
	var f float64
	for i := 0; i+1 < len(fx.dims); i++ {
		f += 3 * 2 * float64(fx.rows) * float64(fx.dims[i]) * float64(fx.dims[i+1])
	}
	return f * float64(fx.m)
}
