// Package core holds DAPPLE's central abstractions: the hybrid
// data/pipeline-parallel Plan (stage partition + replication + placement),
// micro-batching arithmetic, and the analytic pipeline-latency model of the
// paper (Eq. 1–2) with its pivot-stage selection rule (Eq. 3).
//
// A Plan is what the planner emits and what both the analytic model and the
// discrete-event scheduler consume.
package core

import (
	"fmt"
	"sort"
	"strings"

	"dapple/internal/comm"
	"dapple/internal/hardware"
	"dapple/internal/model"
)

// Stage is one pipeline stage: a contiguous layer range replicated across a
// device group. A micro-batch entering the stage is split into
// len(Devices) slices processed in parallel (Fig. 8(a) semantics).
type Stage struct {
	Lo, Hi  int // layer range [Lo, Hi)
	Devices []hardware.DeviceID
}

// Replicas returns the stage's replication degree.
func (s Stage) Replicas() int { return len(s.Devices) }

// Layers returns the number of layers in the stage.
func (s Stage) Layers() int { return s.Hi - s.Lo }

// Kind classifies a plan the way Table V does.
type Kind int

const (
	// KindDP is pure data parallelism: one stage replicated on every device.
	KindDP Kind = iota
	// KindStraight is a pipeline with no replication anywhere.
	KindStraight
	// KindHybrid combines pipeline stages with replication.
	KindHybrid
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindDP:
		return "DP"
	case KindStraight:
		return "Straight"
	default:
		return "Hybrid"
	}
}

// Plan is a complete parallelization strategy for one model on one cluster:
// the stage partition, each stage's replica devices, and the micro-batch
// geometry for a global batch.
type Plan struct {
	Model   *model.Model
	Cluster hardware.Cluster
	Stages  []Stage

	// GBS is the global batch size; MicroBatch the size of each micro-batch
	// injected into the pipeline. M() micro-batches flow per iteration.
	GBS        int
	MicroBatch int
}

// M returns the number of micro-batches per training iteration.
func (p *Plan) M() int {
	if p.MicroBatch <= 0 {
		return 1
	}
	m := p.GBS / p.MicroBatch
	if m < 1 {
		m = 1
	}
	return m
}

// NumStages returns the number of computation stages.
func (p *Plan) NumStages() int { return len(p.Stages) }

// MaxReplicas returns the largest replication degree across stages.
func (p *Plan) MaxReplicas() int {
	r := 1
	for _, s := range p.Stages {
		if s.Replicas() > r {
			r = s.Replicas()
		}
	}
	return r
}

// Kind classifies the plan.
func (p *Plan) Kind() Kind {
	if len(p.Stages) == 1 {
		return KindDP
	}
	if p.MaxReplicas() == 1 {
		return KindStraight
	}
	return KindHybrid
}

// ChooseMicroBatch picks the micro-batch size for a plan: the profiling
// micro-batch ("cbch size" of Table II), shrunk to the largest divisor of the
// global batch so that M x MicroBatch == GBS exactly — the latency model and
// scheduler conserve samples. Replicated stages process 1/r slices of each
// micro-batch (fluid split-concat semantics, Fig. 8(a)).
func ChooseMicroBatch(m *model.Model, gbs int) int {
	mb := m.ProfileBatch
	if mb > gbs {
		mb = gbs
	}
	for mb > 1 && gbs%mb != 0 {
		mb--
	}
	if mb < 1 {
		mb = 1
	}
	return mb
}

// Validate checks that the plan covers the model exactly once with disjoint
// device groups and a feasible micro-batch geometry.
func (p *Plan) Validate() error {
	if len(p.Stages) == 0 {
		return fmt.Errorf("core: plan has no stages")
	}
	want := 0
	var buf [256]bool // clusters of up to 256 devices validate without allocating
	used := buf[:]
	if n := p.Cluster.NumDevices(); n > len(buf) {
		used = make([]bool, n)
	}
	for i, s := range p.Stages {
		if s.Lo != want {
			return fmt.Errorf("core: stage %d starts at layer %d, want %d", i, s.Lo, want)
		}
		if s.Hi <= s.Lo {
			return fmt.Errorf("core: stage %d is empty", i)
		}
		if len(s.Devices) == 0 {
			return fmt.Errorf("core: stage %d has no devices", i)
		}
		for _, d := range s.Devices {
			if int(d) >= p.Cluster.NumDevices() || d < 0 {
				return fmt.Errorf("core: device %d out of range", d)
			}
			if used[d] {
				return fmt.Errorf("core: device %d assigned twice", d)
			}
			used[d] = true
		}
		want = s.Hi
	}
	if want != p.Model.NumLayers() {
		return fmt.Errorf("core: stages cover %d layers, model has %d", want, p.Model.NumLayers())
	}
	if p.MicroBatch <= 0 || p.GBS <= 0 {
		return fmt.Errorf("core: non-positive batch geometry (gbs %d, micro %d)", p.GBS, p.MicroBatch)
	}
	if p.GBS%p.MicroBatch != 0 {
		return fmt.Errorf("core: micro-batch %d does not divide global batch %d", p.MicroBatch, p.GBS)
	}
	return nil
}

// StageFwdTime returns the effective forward time of stage i for one
// micro-batch: layer time at the micro-batch size divided across replicas.
func (p *Plan) StageFwdTime(i int) float64 {
	s := p.Stages[i]
	return p.Model.RangeFwdTime(s.Lo, s.Hi, p.MicroBatch) / float64(s.Replicas())
}

// StageBwdTime is the backward counterpart of StageFwdTime.
func (p *Plan) StageBwdTime(i int) float64 {
	s := p.Stages[i]
	return p.Model.RangeBwdTime(s.Lo, s.Hi, p.MicroBatch) / float64(s.Replicas())
}

// StageParamBytes returns the parameter bytes held by stage i (per replica).
func (p *Plan) StageParamBytes(i int) int64 {
	s := p.Stages[i]
	return p.Model.RangeParamBytes(s.Lo, s.Hi)
}

// StageAllReduceTime returns stage i's gradient synchronization time across
// its replicas (zero when unreplicated).
func (p *Plan) StageAllReduceTime(i int) float64 {
	s := p.Stages[i]
	if s.Replicas() <= 1 {
		return 0
	}
	return comm.AllReduceTime(p.Cluster, s.Devices, p.StageParamBytes(i))
}

// BoundaryBytes returns the activation bytes crossing the boundary after
// stage i for one whole micro-batch.
func (p *Plan) BoundaryBytes(i int) int64 {
	s := p.Stages[i]
	return p.Model.OutputBytes(s.Hi-1, p.MicroBatch)
}

// CrossStageTime returns the transfer time of the boundary after stage i
// (activations forward; the gradient volume backward is identical).
func (p *Plan) CrossStageTime(i int) float64 {
	if i >= len(p.Stages)-1 {
		return 0
	}
	return comm.CrossStageTime(p.Cluster, p.Stages[i].Devices, p.Stages[i+1].Devices, p.BoundaryBytes(i))
}

// ACR returns the activation-communication ratio of the plan (§V-C): the
// average cross-stage communication per boundary (forward activations plus
// backward gradients) over the average per-stage computation time.
func (p *Plan) ACR() float64 {
	if len(p.Stages) < 2 {
		return 0
	}
	var commT float64
	for i := 0; i < len(p.Stages)-1; i++ {
		commT += 2 * p.CrossStageTime(i)
	}
	commT /= float64(len(p.Stages) - 1)
	var compT float64
	for i := range p.Stages {
		compT += p.StageFwdTime(i) + p.StageBwdTime(i)
	}
	compT /= float64(len(p.Stages))
	if compT == 0 {
		return 0
	}
	return commT / compT
}

// SplitString renders the layer counts per stage, e.g. "9:7".
func (p *Plan) SplitString() string {
	parts := make([]string, len(p.Stages))
	for i, s := range p.Stages {
		parts[i] = fmt.Sprint(s.Layers())
	}
	return strings.Join(parts, ":")
}

// ReplicaString renders the replication degrees per stage, e.g. "8:8".
func (p *Plan) ReplicaString() string {
	parts := make([]string, len(p.Stages))
	for i, s := range p.Stages {
		parts[i] = fmt.Sprint(s.Replicas())
	}
	return strings.Join(parts, ":")
}

// String implements fmt.Stringer.
func (p *Plan) String() string {
	switch p.Kind() {
	case KindDP:
		return fmt.Sprintf("DP x%d (micro-batch %d)", p.MaxReplicas(), p.MicroBatch)
	case KindStraight:
		return fmt.Sprintf("Straight %d stages (split %s, micro-batch %d)",
			p.NumStages(), p.SplitString(), p.MicroBatch)
	default:
		return fmt.Sprintf("Pipeline %s (split %s, micro-batch %d)",
			p.ReplicaString(), p.SplitString(), p.MicroBatch)
	}
}

// Cuts returns the exclusive layer end index of every stage — the carving
// boundaries a plan-driven runtime slices a real network by.
func (p *Plan) Cuts() []int {
	cuts := make([]int, len(p.Stages))
	for i, s := range p.Stages {
		cuts[i] = s.Hi
	}
	return cuts
}

// ReplicaCounts returns the per-stage replication degrees in stage order.
func (p *Plan) ReplicaCounts() []int {
	rs := make([]int, len(p.Stages))
	for i, s := range p.Stages {
		rs[i] = s.Replicas()
	}
	return rs
}

// CompatibleWithLayers checks that the plan's stage ranges carve a runtime
// network of n layers exactly: the plan's profiled model must map one model
// layer to one runtime layer for Stage.Lo/Hi to be meaningful cut points.
func (p *Plan) CompatibleWithLayers(n int) error {
	if p.Model == nil {
		return fmt.Errorf("core: plan has no model")
	}
	if p.Model.NumLayers() != n {
		return fmt.Errorf("core: plan partitions %d profiled layers but the network has %d",
			p.Model.NumLayers(), n)
	}
	return nil
}

// DevicesUsed returns all devices referenced by the plan, sorted.
func (p *Plan) DevicesUsed() []hardware.DeviceID {
	var ds []hardware.DeviceID
	for _, s := range p.Stages {
		ds = append(ds, s.Devices...)
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds
}
