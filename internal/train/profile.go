package train

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"dapple/internal/model"
	"dapple/internal/nn"
	"dapple/internal/sim"
	"dapple/internal/tensor"
	"dapple/internal/trace"
)

// synthFLOPS is the synthetic device throughput ProfileNetwork converts
// analytic FLOP counts into seconds with. It is deliberately modest so that
// per-layer times of the small real networks land on the same order as the
// scheduler's fixed weight-update cost and plans stay non-degenerate.
const synthFLOPS = 1e9

// ProfileNetwork derives a planner-ready profiled model from a real network:
// one model layer per network layer, analytic compute times from each
// layer's parameter and activation shapes, and exact activation/parameter
// byte counts measured by one probe forward pass (the executor's workspace
// layer path) at profileBatch rows of inDim features. This is the bridge that
// closes the planner→runtime loop: the returned model's layer indices map
// one-to-one onto the network's layers, so any core.Plan produced for it is
// executable by an Executor.
func ProfileNetwork(name string, net *nn.Network, inDim, profileBatch, defaultGBS int) (*model.Model, error) {
	if net == nil || net.NumLayers() == 0 {
		return nil, fmt.Errorf("train: profile of an empty network")
	}
	if inDim < 1 || profileBatch < 1 || defaultGBS < 1 {
		return nil, fmt.Errorf("train: profile geometry inDim=%d batch=%d gbs=%d", inDim, profileBatch, defaultGBS)
	}
	ws := nn.NewWorkspace()
	x := tensor.New(profileBatch, inDim)
	layers := make([]model.Layer, 0, net.NumLayers())
	for i, l := range net.Layers {
		y, ctx := l.ForwardWS(ws, x)
		var params int64
		for _, p := range l.Params() {
			params += int64(len(p.W.Data))
		}
		// Parametric layers cost one multiply-add per weight per row;
		// activations one op per element.
		flops := float64(profileBatch) * float64(y.Cols)
		if params > 0 {
			flops = 2 * float64(profileBatch) * float64(x.Cols) * float64(y.Cols)
		}
		fwd := flops / synthFLOPS
		layers = append(layers, model.Layer{
			Name:        fmt.Sprintf("L%d", i),
			FwdTime:     fwd,
			BwdTime:     2 * fwd, // the standard B ≈ 2F ratio the paper assumes
			OutputBytes: int64(len(y.Data)) * 8,
			StoredBytes: nn.StashBytes(ctx),
			ParamBytes:  params * 8,
		})
		x = y
	}
	m := &model.Model{
		Name:                   name,
		Layers:                 layers,
		ProfileBatch:           profileBatch,
		DefaultGBS:             defaultGBS,
		OptimizerBytesPerParam: model.AdamBytesPerParam,
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// MeasureOptions configure ProfileNetworkMeasured's calibration loop.
type MeasureOptions struct {
	// Warmup is the number of untimed iterations run first, so pools,
	// caches and branch predictors are hot before anything is recorded
	// (default 2).
	Warmup int
	// Iters is the number of recorded iterations whose per-layer span
	// durations are aggregated by median (default 5).
	Iters int
}

// normalize applies defaults.
func (mo MeasureOptions) normalize() MeasureOptions {
	if mo.Warmup <= 0 {
		mo.Warmup = 2
	}
	if mo.Iters <= 0 {
		mo.Iters = 5
	}
	return mo
}

// measuredTimeFloor is the smallest per-layer time a measured profile
// reports: clock-resolution zeros would make layers free and degenerate the
// planner's balance search.
const measuredTimeFloor = 1e-9

// ProfileNetworkMeasured is ProfileNetwork with MEASURED per-layer compute
// times: instead of converting analytic FLOP counts through a synthetic
// device speed, it executes warm calibration iterations of the network's
// workspace (pooled-buffer) path — the same kernels the real executor runs —
// records every layer's forward and backward pass as trace.Recorder spans,
// and aggregates the span durations by median. This is the paper's actual
// profiler loop (and PipeDream's): plans for real networks are calibrated by
// real execution, closing the ROADMAP's "real-runtime profiling hooks" item.
//
// Byte accounting (output/stashed/parameter volumes) is identical to
// ProfileNetwork's probe, so an analytic and a measured profile of one
// network differ only in their time columns. The calibration runs on a clone;
// net's parameters and gradients are untouched. ctx is checked between
// calibration iterations, so deadlines and ctrl-C bound the loop.
func ProfileNetworkMeasured(ctx context.Context, name string, net *nn.Network, inDim, profileBatch, defaultGBS int, mo MeasureOptions) (*model.Model, error) {
	m, _, err := ProfileNetworkMeasuredTrace(ctx, name, net, inDim, profileBatch, defaultGBS, mo)
	return m, err
}

// ProfileNetworkMeasuredTrace is ProfileNetworkMeasured returning also the
// calibration trace the times were aggregated from: one resource "L<i>" per
// layer with "fwd"/"bwd" spans per recorded iteration, so callers (and
// tests) can audit exactly which measurements produced each model time.
func ProfileNetworkMeasuredTrace(ctx context.Context, name string, net *nn.Network, inDim, profileBatch, defaultGBS int, mo MeasureOptions) (*model.Model, *sim.Result, error) {
	m, err := ProfileNetwork(name, net, inDim, profileBatch, defaultGBS)
	if err != nil {
		return nil, nil, err
	}
	mo = mo.normalize()

	cal := net.Clone()
	ws := nn.NewWorkspace()
	rng := rand.New(rand.NewSource(42))
	x0 := tensor.New(profileBatch, inDim)
	// Non-zero calibration inputs: all-zero activations would die at the
	// first ReLU, timing backward passes against unrealistically sparse
	// gradients.
	x0.Randomize(rng, 1)

	nL := cal.NumLayers()
	rec := trace.NewRecorder()
	layerRes := make([]int, nL)
	for i := range layerRes {
		layerRes[i] = rec.Resource(fmt.Sprintf("L%d", i))
	}
	params := cal.Params()
	outs := make([]*tensor.Matrix, nL)
	ctxs := make([]nn.Ctx, nL)

	iteration := func(record bool) {
		x := x0
		for i, l := range cal.Layers {
			t0 := rec.Now()
			y, c := l.ForwardWS(ws, x)
			if record {
				rec.Record(layerRes[i], sim.Tag{Kind: sim.Fwd, Stage: int32(i)}, t0, rec.Now())
			}
			outs[i], ctxs[i] = y, c
			x = y
		}
		// A constant synthetic output gradient: backward cost does not depend
		// on gradient values, only on shapes.
		orig := ws.Get(x.Rows, x.Cols)
		for i := range orig.Data {
			orig.Data[i] = 1 / float64(len(orig.Data))
		}
		dy := orig
		for i := nL - 1; i >= 0; i-- {
			t0 := rec.Now()
			dx := cal.Layers[i].BackwardWS(ws, ctxs[i], dy)
			if record {
				rec.Record(layerRes[i], sim.Tag{Kind: sim.Bwd, Stage: int32(i)}, t0, rec.Now())
			}
			if dx != dy && dy != orig {
				ws.Put(dy)
			}
			dy = dx
		}
		if dy != orig {
			ws.Put(dy)
		}
		ws.Put(orig)
		for i, y := range outs {
			ws.Put(y)
			outs[i], ctxs[i] = nil, nil
		}
		for _, p := range params {
			p.G.Zero()
		}
	}

	for it := 0; it < mo.Warmup; it++ {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		iteration(false)
	}
	rec.Reset()
	for it := 0; it < mo.Iters; it++ {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		iteration(true)
	}

	calTrace := rec.Result()
	fwdSamples := make([][]float64, nL)
	bwdSamples := make([][]float64, nL)
	for _, s := range calTrace.Spans {
		switch s.Kind {
		case "fwd":
			fwdSamples[s.Resource] = append(fwdSamples[s.Resource], s.End-s.Start)
		case "bwd":
			bwdSamples[s.Resource] = append(bwdSamples[s.Resource], s.End-s.Start)
		}
	}
	for i := range m.Layers {
		m.Layers[i].FwdTime = max(median(fwdSamples[i]), measuredTimeFloor)
		m.Layers[i].BwdTime = max(median(bwdSamples[i]), measuredTimeFloor)
	}
	if err := m.Validate(); err != nil {
		return nil, nil, err
	}
	return m, calTrace, nil
}

// median returns the middle value of samples (mean of the middle pair for
// even counts), 0 for an empty slice. samples is sorted in place.
func median(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sort.Float64s(samples)
	mid := len(samples) / 2
	if len(samples)%2 == 1 {
		return samples[mid]
	}
	return (samples[mid-1] + samples[mid]) / 2
}
