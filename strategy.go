package dapple

import (
	"slices"

	"dapple/internal/strategy"
)

// Strategy is one named planner: it turns (model, cluster, options) into a
// PlanResult under a context. The DAPPLE planner and every baseline of the
// paper's evaluation are strategies, all returning the same PlanResult
// shape, so they compare apples-to-apples through one Engine.
type Strategy = strategy.Strategy

// Strategies returns every strategy WithStrategy accepts, sorted by name:
//
//	dapple     the paper's planner (§IV): DP search over partitions,
//	           replication and placement, re-ranked on the simulator
//	dp         pure data parallelism (Fig. 12 baseline)
//	gpipe      GPipe/torchgpipe even block partition, flood-then-drain
//	pipedream  PipeDream's hierarchical planner under synchronous training
//	straight   balanced one-stage-per-device pipeline (Fig. 14(a))
func Strategies() []Strategy { return slices.Clone(strategy.Table) }
