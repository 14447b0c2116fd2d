package planner

import (
	"fmt"
	"runtime"

	"dapple/internal/core"
	"dapple/internal/schedule"
)

// Options tune a plan search. The baseline strategies ignore knobs that do
// not apply to them (they have no branch-and-bound to prune); GBS is honored
// by all.
type Options struct {
	// GBS is the global batch size; 0 uses the model default.
	GBS int

	// MaxStages caps computation stages in the general search (0 = 4;
	// straight pipelines with one stage per device are seeded separately).
	MaxStages int

	// SkipMemCheck accepts plans regardless of device memory.
	SkipMemCheck bool

	// PruneSlack widens branch-and-bound pruning: states whose candidate
	// latency exceeds best*PruneSlack are not extended. 0 means 1.6.
	PruneSlack float64

	// Finalists bounds how many analytic-best candidates are re-ranked on
	// the simulator. 0 means 24.
	Finalists int

	// Workers bounds the goroutines the planner fans out over first-stage
	// split points (0 = GOMAXPROCS, 1 = fully sequential). The chosen plan
	// is identical for every value: each branch searches isolated state and
	// branch results merge in deterministic task order.
	Workers int

	// NoPrune disables the planner's branch-and-bound lower bound, the
	// dominance memo and the slack cut, making the search exhaustive over
	// the placement-policy space. Slow; meant for soundness testing.
	NoPrune bool
}

// Canonical defaults substituted for zero-valued Options knobs.
const (
	DefaultMaxStages  = 4
	DefaultPruneSlack = 1.6
	DefaultFinalists  = 24
)

// DefaultWorkers is the worker count substituted for Options.Workers == 0:
// one search goroutine per schedulable CPU.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// Normalize returns o with zero values replaced by the canonical defaults
// (and GBS by defaultGBS), so an implicitly-defaulted and an explicitly-
// defaulted request compare equal — plan caches key on normalized Options.
func (o Options) Normalize(defaultGBS int) Options {
	if o.GBS <= 0 {
		o.GBS = defaultGBS
	}
	if o.MaxStages <= 0 {
		o.MaxStages = DefaultMaxStages
	}
	if !(o.PruneSlack > 0) { // also replaces NaN, which would poison map keys
		o.PruneSlack = DefaultPruneSlack
	}
	if o.Finalists <= 0 {
		o.Finalists = DefaultFinalists
	}
	if o.Workers <= 0 {
		o.Workers = DefaultWorkers()
	}
	return o
}

// Result is the common output shape of the planner and every baseline
// strategy: the chosen plan plus its simulated latency, so DAPPLE and the
// baselines are directly comparable.
type Result struct {
	// Strategy is the name of the strategy that produced the result.
	Strategy string

	Plan    *core.Plan
	Latency float64 // simulated pipeline latency of the chosen plan, seconds
	Speedup float64 // vs single-device execution of the same global batch

	// Analytic is the Eq. (1)-(2) latency estimate of the chosen plan; the
	// DAPPLE search optimizes this, then re-ranks finalists on the
	// discrete-event simulator, which also accounts for the non-pivot bubbles
	// and link contention the analytic objective approximates away.
	Analytic float64

	// NeedsRecompute reports that the plan fits device memory only with
	// activation re-computation enabled.
	NeedsRecompute bool

	// Policy is the recommended warmup policy for the runtime: PB when the
	// plan's activation-communication ratio is notable (cross-stage traffic
	// comparable to compute, §V-C / Table IV), PA otherwise. GPipe-style
	// strategies recommend the GPipe flood schedule.
	Policy schedule.Policy

	// Explored counts complete candidate plans evaluated.
	Explored int
}

// String implements fmt.Stringer.
func (r *Result) String() string {
	return fmt.Sprintf("%v  latency=%.1fms speedup=%.2fx acr=%.3f",
		r.Plan, r.Latency*1e3, r.Speedup, r.Plan.ACR())
}

// PBACRThreshold is the activation-communication ratio above which the
// deeper warmup of policy B pays off (Table IV: GNMT/VGG/AmoebaNet at
// ACR >= ~0.1 benefit; BERT/XLNet below do not).
const PBACRThreshold = 0.1

// RecommendPolicy picks the runtime warmup policy for a plan by its ACR.
func RecommendPolicy(p *core.Plan) schedule.Policy {
	if p.ACR() >= PBACRThreshold {
		return schedule.DapplePB
	}
	return schedule.DapplePA
}
