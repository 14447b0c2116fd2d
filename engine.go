package dapple

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"dapple/internal/schedule"
	"dapple/internal/strategy"
)

// Engine is the context-aware front door to planning and simulation: one
// cluster, one strategy, and a concurrency-safe plan cache keyed by model
// and normalized search options. It is safe for concurrent use.
//
// Construct it with functional options:
//
//	eng, err := dapple.NewEngine(
//		dapple.WithCluster(dapple.ConfigA(2)),
//		dapple.WithStrategy("dapple"),
//	)
//	pr, err := eng.Plan(ctx, dapple.ModelByName("BERT-48"))
//	res, err := eng.SimulatePlan(ctx, pr)
type Engine struct {
	cluster  Cluster
	strat    Strategy
	planOpts PlanOptions

	mu    sync.Mutex
	cache map[planKey]*PlanResult
}

// cacheEntries bounds the plan cache; a full cache is cleared before the
// next store.
const cacheEntries = 128

// EngineOption configures an Engine under construction.
type EngineOption func(*Engine) error

// WithCluster sets the cluster every Plan and Simulate call targets.
// Required.
func WithCluster(c Cluster) EngineOption {
	return func(e *Engine) error {
		if err := c.Validate(); err != nil {
			return err
		}
		e.cluster = c
		return nil
	}
}

// WithStrategy selects the planning strategy by name (see Strategies). The
// default is "dapple".
func WithStrategy(name string) EngineOption {
	return func(e *Engine) error {
		s, ok := strategy.Lookup(name)
		if !ok {
			return fmt.Errorf("dapple: unknown strategy %q (have %v)", name, strategy.Names())
		}
		e.strat = s
		return nil
	}
}

// WithPlanOptions sets the default search options Plan uses; PlanWith
// overrides them per call. The options carry the planner's parallelism and
// pruning knobs too (PlanOptions.Workers, PlanOptions.NoPrune).
func WithPlanOptions(opts PlanOptions) EngineOption {
	return func(e *Engine) error {
		e.planOpts = opts
		return nil
	}
}

// NewEngine builds an Engine. WithCluster is mandatory; the strategy
// defaults to the DAPPLE planner.
func NewEngine(opts ...EngineOption) (*Engine, error) {
	e := &Engine{cache: map[planKey]*PlanResult{}}
	e.strat, _ = strategy.Lookup("dapple")
	for _, opt := range opts {
		if err := opt(e); err != nil {
			return nil, err
		}
	}
	if e.cluster == (Cluster{}) {
		return nil, errors.New("dapple: NewEngine requires WithCluster")
	}
	return e, nil
}

// Cluster returns the engine's target cluster.
func (e *Engine) Cluster() Cluster { return e.cluster }

// planKey identifies one cacheable planning request on an engine, whose
// cluster and strategy are fixed. The model contributes its profile
// fingerprint so a re-profiled architecture with a reused name does not
// alias.
type planKey struct {
	model uint64
	opts  PlanOptions
}

// Plan searches for the engine strategy's plan of m on the engine's cluster
// using the engine's default options. Results are cached: a repeated
// identical call returns without re-running the search. Cached results are
// shared — treat them as read-only.
func (e *Engine) Plan(ctx context.Context, m *Model) (*PlanResult, error) {
	return e.PlanWith(ctx, m, e.planOpts)
}

// PlanWith is Plan with per-call search options.
func (e *Engine) PlanWith(ctx context.Context, m *Model, opts PlanOptions) (*PlanResult, error) {
	if m == nil {
		return nil, errors.New("dapple: Plan of a nil model")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Normalize so an implicitly-defaulted request and one spelling out the
	// same defaults hit one key. Workers is dropped from the key: every
	// worker count yields the identical plan.
	opts = opts.Normalize(m.DefaultGBS)
	key := planKey{model: m.Fingerprint(), opts: opts}
	key.opts.Workers = 0

	e.mu.Lock()
	res, ok := e.cache[key]
	e.mu.Unlock()
	if ok {
		return res, nil
	}
	res, err := e.strat.Plan(ctx, m, e.cluster, opts)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.cache) >= cacheEntries {
		clear(e.cache)
	}
	e.cache[key] = res
	return res, nil
}

// Simulate executes one training iteration of the plan on the discrete-event
// runtime under ctx, reporting iteration time, throughput, per-device peak
// memory and OOM conditions.
func (e *Engine) Simulate(ctx context.Context, p *Plan, opts ScheduleOptions) (*ScheduleResult, error) {
	if p == nil {
		return nil, errors.New("dapple: Simulate of a nil plan")
	}
	if p.Model == nil {
		return nil, errors.New("dapple: Simulate of a plan with no model")
	}
	return schedule.RunContext(ctx, p, opts)
}

// SimulatePlan simulates a planning result under the strategy's recommended
// schedule policy and re-computation setting.
func (e *Engine) SimulatePlan(ctx context.Context, pr *PlanResult) (*ScheduleResult, error) {
	if pr == nil {
		return nil, errors.New("dapple: SimulatePlan of a nil result")
	}
	return e.Simulate(ctx, pr.Plan, ScheduleOptions{Policy: pr.Policy, Recompute: pr.NeedsRecompute})
}
