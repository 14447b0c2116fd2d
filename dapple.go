// Package dapple is the public facade of this reproduction of
// "DAPPLE: A Pipelined Data Parallel Approach for Training Large Models"
// (Fan et al., PPoPP 2021): profile a model, plan a hybrid data/pipeline
// strategy for a cluster, and simulate or really execute the planned
// schedule.
//
// # Engine and strategies
//
// The Engine is the context-aware front door. It binds a cluster to one
// planning Strategy — the DAPPLE planner or one of the paper's baselines
// (pure data parallelism, GPipe, PipeDream, the straight pipeline), all
// returning the same PlanResult shape — and caches plans by model and
// search options so a repeated request runs its search once:
//
//	eng, err := dapple.NewEngine(
//		dapple.WithCluster(dapple.ConfigA(2)),
//		dapple.WithStrategy("dapple"), // or "dp", "gpipe", "pipedream", "straight"
//	)
//	pr, err := eng.Plan(ctx, dapple.ModelByName("BERT-48"))
//	res, err := eng.SimulatePlan(ctx, pr)
//
// Plan and Simulate thread their context through the planner's
// dynamic-program search and the discrete-event scheduler, so long searches
// are cancellable and deadline-bounded. Strategies lists the strategies by
// name; every result carries the plan, its simulated latency and speedup, a
// recommended runtime policy, and whether activation re-computation is
// needed, so alternatives compare apples-to-apples.
//
// # Parallel planning
//
// The DAPPLE planner fans its search out across first-stage split points on
// a worker pool and prunes with an admissible branch-and-bound lower bound.
// PlanOptions.Workers bounds the fan-out (0 = GOMAXPROCS, 1 = sequential)
// and PlanOptions.NoPrune disables pruning for soundness testing. The chosen
// plan is byte-identical for every worker count: branches search isolated
// state and merge in deterministic order. See ARCHITECTURE.md for the full
// walk-through.
//
// The components mirror the paper's Fig. 1 workflow: the Profiler
// (ProfileNetwork, or ProfileNetworkMeasured, which times warm real
// execution; Zoo holds the calibrated Table II models) turns a network into
// per-layer statistics; a Strategy searches stage partitions, replication
// and topology-aware placement; the Runtime (Engine.Simulate) executes GPipe
// or DAPPLE early-backward schedules with byte-accurate memory accounting on
// a discrete-event cluster simulator.
//
// # Real execution
//
// Plans are executable, not only simulable. ProfileNetwork bridges a real
// Network into a planner Model (one profiled layer per network layer), and
// NewExecutor carves the planned stages into one worker goroutine per
// device, moves activations and gradients over channel links with
// split/concat row redistribution at replication boundaries, and
// synchronizes replicated stages with a real ring all-reduce. Gradients of
// any executed plan match sequential training to float tolerance, and
// VerifyExecution asserts the real per-device event order equals the
// simulated schedule of the same plan; see examples/training.
package dapple

import (
	"dapple/internal/core"
	"dapple/internal/hardware"
	"dapple/internal/model"
	"dapple/internal/planner"
	"dapple/internal/schedule"
	"dapple/internal/trace"
)

// Re-exported core types. The internal packages remain the implementation;
// these aliases are the stable public surface.
type (
	// Model is a profiled DNN: per-layer compute times, activation sizes and
	// parameter sizes at a reference micro-batch.
	Model = model.Model
	// Layer is one profiled, pipeline-splittable unit.
	Layer = model.Layer
	// Cluster describes a training cluster topology.
	Cluster = hardware.Cluster
	// DeviceID identifies one accelerator.
	DeviceID = hardware.DeviceID
	// Plan is a hybrid data/pipeline parallelization strategy.
	Plan = core.Plan
	// Stage is one pipeline stage of a Plan.
	Stage = core.Stage
	// PlanResult is a strategy's output: the chosen plan plus its simulated
	// latency, speedup, recommended policy and re-computation need.
	PlanResult = planner.Result
	// PlanOptions tunes a strategy's plan search.
	PlanOptions = planner.Options
	// SchedulePolicy selects the micro-batch scheduling discipline.
	SchedulePolicy = schedule.Policy
	// ScheduleOptions configures a simulated training iteration.
	ScheduleOptions = schedule.Options
	// ScheduleResult reports a simulated training iteration.
	ScheduleResult = schedule.Result
)

// Schedule policies.
const (
	// GPipeSchedule floods all micro-batches forward before draining
	// backward (Fig. 3(a)).
	GPipeSchedule = schedule.GPipe
	// DapplePA is early-backward scheduling with K_i = min(S-i, D) warmup
	// micro-batches (§V-C policy A).
	DapplePA = schedule.DapplePA
	// DapplePB doubles the warmup depth for communication-heavy pipelines
	// (§V-C policy B).
	DapplePB = schedule.DapplePB
)

// ConfigA returns the hierarchical cluster of Table III: servers with 8
// NVLink-connected V100s on 25 Gbps Ethernet.
func ConfigA(servers int) Cluster { return hardware.ConfigA(servers) }

// ConfigB returns the flat cluster of Table III: single-V100 servers on
// 25 Gbps Ethernet.
func ConfigB(servers int) Cluster { return hardware.ConfigB(servers) }

// ConfigC returns the flat cluster of Table III with 10 Gbps Ethernet.
func ConfigC(servers int) Cluster { return hardware.ConfigC(servers) }

// Zoo returns the six calibrated benchmark models of Table II.
func Zoo() []*Model { return model.Zoo() }

// ModelByName returns a zoo model by its Table II name, or nil.
func ModelByName(name string) *Model { return model.ByName(name) }

// Gantt renders a simulated iteration as an ASCII timeline, one row per
// stage executor and link (the Fig. 3/4 schedule diagrams).
func Gantt(res *ScheduleResult, width int) string {
	return trace.Gantt(res.Sim, width)
}

// MemoryCurve renders stage's memory-over-time as a sparkline plus its peak
// bytes (the Fig. 3(c) curves).
func MemoryCurve(res *ScheduleResult, stage, width int) (string, int64) {
	return trace.MemCurve(res.MemTrace(stage), res.IterTime, width)
}
