// Package strategy is the table of planning strategies the engine can run:
// the DAPPLE planner (internal/planner) and every baseline of the paper's
// evaluation (internal/baselines: pure data parallelism, GPipe, PipeDream,
// the straight pipeline). Each turns (model, cluster, options) into a
// planner.Result under a context, so all of them return the same shape and
// compare apples-to-apples.
package strategy

import (
	"context"
	"fmt"

	"dapple/internal/baselines"
	"dapple/internal/core"
	"dapple/internal/hardware"
	"dapple/internal/model"
	"dapple/internal/planner"
	"dapple/internal/schedule"
)

// Strategy is one named planner. Plan must be safe for concurrent use and
// return promptly with ctx.Err() once ctx is cancelled or past its deadline.
type Strategy struct {
	// Name is the table key ("dapple", "dp", "gpipe", "pipedream", ...).
	Name string
	// Describe is a one-line human-readable summary for listings.
	Describe string
	// Plan searches for this strategy's plan of m on c.
	Plan func(ctx context.Context, m *model.Model, c hardware.Cluster, opts planner.Options) (*planner.Result, error)
}

// Table lists every strategy, sorted by name.
var Table = []Strategy{
	{"dapple", "DAPPLE planner: DP search over partitions, replication and placement, re-ranked on the simulator (§IV)",
		planner.PlanContext},
	{"dp", "pure data parallelism: the whole model replicated on every device, synchronous all-reduce (Fig. 12 baseline)",
		fixed("dp", baselines.DPPlan, func(*core.Plan) schedule.Policy { return schedule.DapplePA })},
	{"gpipe", "GPipe/torchgpipe: even block partition, one stage per device, flood-then-drain schedule",
		fixed("gpipe", baselines.StraightPipeline, func(*core.Plan) schedule.Policy { return schedule.GPipe })},
	{"pipedream", "PipeDream planner (hierarchical balanced partition + replication) re-evaluated under synchronous training (Table VII)",
		fixed("pipedream", baselines.PipeDream, planner.RecommendPolicy)},
	{"straight", "straight pipeline: balanced layer partition, one unreplicated stage per device (Fig. 14(a))",
		fixed("straight", baselines.StraightPipeline, planner.RecommendPolicy)},
}

// Lookup returns the named strategy.
func Lookup(name string) (Strategy, bool) {
	for _, s := range Table {
		if s.Name == name {
			return s, true
		}
	}
	return Strategy{}, false
}

// Names returns every strategy name, sorted.
func Names() []string {
	names := make([]string, len(Table))
	for i, s := range Table {
		names[i] = s.Name
	}
	return names
}

// fixed turns a single-plan constructor into a strategy's Plan: build the
// plan (nil when the shape is infeasible, e.g. fewer layers than pipeline
// stages) and score it under the schedule policy picks.
func fixed(name string, build func(*model.Model, hardware.Cluster, int) *core.Plan,
	policy func(*core.Plan) schedule.Policy) func(context.Context, *model.Model, hardware.Cluster, planner.Options) (*planner.Result, error) {
	return func(ctx context.Context, m *model.Model, c hardware.Cluster, opts planner.Options) (*planner.Result, error) {
		if err := m.Validate(); err != nil {
			return nil, err
		}
		if err := c.Validate(); err != nil {
			return nil, err
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		opts = opts.Normalize(m.DefaultGBS)
		p := build(m, c, opts.GBS)
		if p == nil {
			return nil, fmt.Errorf("strategy %s: no feasible plan for %s on %s (gbs %d)",
				name, m.Name, c.Name, opts.GBS)
		}
		return Evaluate(ctx, name, p, policy(p), opts)
	}
}

// Evaluate scores a fixed plan: simulate one iteration under pol, fall back
// to activation re-computation when the plain schedule overflows device
// memory, and fill the common Result shape.
func Evaluate(ctx context.Context, name string, p *core.Plan, pol schedule.Policy, opts planner.Options) (*planner.Result, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("strategy %s: %w", name, err)
	}
	res, err := schedule.RunContext(ctx, p, schedule.Options{Policy: pol})
	if err != nil {
		return nil, err
	}
	recompute := false
	if res.OOM && !opts.SkipMemCheck {
		rc, err := schedule.RunContext(ctx, p, schedule.Options{Policy: pol, Recompute: true})
		if err != nil {
			return nil, err
		}
		if rc.OOM {
			return nil, fmt.Errorf("strategy %s: plan %v overflows device memory on stage %d even with re-computation",
				name, p, rc.OOMStage)
		}
		res, recompute = rc, true
	}
	return &planner.Result{
		Strategy:       name,
		Plan:           p,
		Latency:        res.IterTime,
		Speedup:        p.Model.SingleDeviceIterTime(p.GBS) / res.IterTime,
		Analytic:       p.Latency(),
		NeedsRecompute: recompute,
		Policy:         pol,
		Explored:       1,
	}, nil
}
