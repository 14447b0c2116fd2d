// Package baselines implements the comparison systems of the paper's
// evaluation: the two data-parallel baselines of Fig. 12 (gradient
// accumulation without and with computation/communication overlap), the
// PipeDream-style planner re-evaluated under synchronous training
// (Table VII, Fig. 13), and the GPipe/torchgpipe even-block partitioner.
package baselines

import (
	"dapple/internal/comm"
	"dapple/internal/core"
	"dapple/internal/hardware"
	"dapple/internal/model"
)

// DPResult reports a data-parallel iteration-time estimate.
type DPResult struct {
	IterTime float64
	Speedup  float64 // vs single-device sequential execution
	Exposed  float64 // communication seconds not hidden by backward compute
	Feasible bool    // fits device memory
}

// dpCompute returns per-device compute time for one global batch under
// gradient accumulation: each of the g replicas runs gbs/g samples in
// micro-batches of the profile size.
func dpCompute(m *model.Model, gbs, g int) float64 {
	perDev := float64(gbs) / float64(g)
	steps := perDev / float64(m.ProfileBatch)
	return steps * (m.IterFwdTime(m.ProfileBatch) + m.IterBwdTime(m.ProfileBatch))
}

// dpFits checks the data-parallel memory footprint: full model state plus one
// micro-batch of activations per device.
func dpFits(m *model.Model, c hardware.Cluster) bool {
	if c.DeviceMemory <= 0 {
		return true
	}
	static := m.OptimizerStateBytes(m.TotalParamBytes()) + m.WorkspaceBytes
	act := m.RangeStoredBytes(0, m.NumLayers(), m.ProfileBatch)
	return static+act <= c.DeviceMemory
}

// DPNoOverlap estimates synchronous data parallelism with gradient
// accumulation but no overlap: compute, then a full-gradient all-reduce.
func DPNoOverlap(m *model.Model, c hardware.Cluster, gbs int) DPResult {
	g := c.NumDevices()
	ar := comm.AllReduceTime(c, c.Devices(), m.GradientBytes())
	t := dpCompute(m, gbs, g) + ar
	return DPResult{
		IterTime: t,
		Speedup:  m.SingleDeviceIterTime(gbs) / t,
		Exposed:  ar,
		Feasible: dpFits(m, c),
	}
}

// DPOverlap estimates data parallelism with intra-iteration overlap of
// backward computation and gradient communication: layer gradients are
// all-reduced as their backward completes, so only the exposed remainder adds
// to iteration time. Gradients become ready back-to-front during the final
// accumulation step's backward pass.
func DPOverlap(m *model.Model, c hardware.Cluster, gbs int) DPResult {
	g := c.NumDevices()
	compute := dpCompute(m, gbs, g)

	bwd := m.IterBwdTime(m.ProfileBatch)
	chunks := make([]comm.GradChunk, 0, m.NumLayers())
	elapsed := 0.0
	for i := m.NumLayers() - 1; i >= 0; i-- {
		elapsed += m.Layers[i].BwdTime
		chunks = append(chunks, comm.GradChunk{
			Bytes:   m.Layers[i].ParamBytes,
			ReadyAt: elapsed,
		})
	}
	exposed := comm.OverlapExposedTime(chunks, bwd, comm.ARSecPerByte(c, c.Devices()))
	t := compute + exposed
	return DPResult{
		IterTime: t,
		Speedup:  m.SingleDeviceIterTime(gbs) / t,
		Exposed:  exposed,
		Feasible: dpFits(m, c),
	}
}

// DPPlan builds the pure data-parallel plan: one stage holding the whole
// model, replicated on every device (the Fig. 12 baseline as a Plan).
func DPPlan(m *model.Model, c hardware.Cluster, gbs int) *core.Plan {
	p := &core.Plan{
		Model: m, Cluster: c, GBS: gbs,
		Stages: []core.Stage{{Lo: 0, Hi: m.NumLayers(), Devices: c.Devices()}},
	}
	p.MicroBatch = core.ChooseMicroBatch(m, gbs)
	return p
}

// StraightPipeline builds the no-replication pipeline plan over all devices
// using balanced layer partitioning — the "Straight Pipeline" series of
// Fig. 14(a), and the plan the gpipe strategy schedules. It returns nil when
// the model has fewer layers than the cluster has devices.
func StraightPipeline(m *model.Model, c hardware.Cluster, gbs int) *core.Plan {
	g := c.NumDevices()
	if m.NumLayers() < g {
		return nil
	}
	return GPipePlan(m, c, gbs, g)
}
