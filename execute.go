package dapple

import (
	"context"
	"errors"

	"dapple/internal/nn"
	"dapple/internal/trace"
	"dapple/internal/train"
)

// Re-exported real-runtime types: the concurrent mini-runtime (goroutines as
// devices, channels as links) that executes planner Plans on genuine
// gradient math.
type (
	// Network is a real layer stack the runtime trains (package nn).
	Network = nn.Network
	// Optimizer updates parameters from accumulated gradients.
	Optimizer = nn.Optimizer
	// TrainBatch is one micro-batch of classification examples.
	TrainBatch = train.Batch
	// Executor runs a planner Plan on a real Network as a multi-goroutine
	// pipeline with channel links, stage replication and ring all-reduce.
	Executor = train.Executor
	// ExecOptions configure plan-driven execution (policy, re-computation,
	// warmup memory limit, tracing).
	ExecOptions = train.ExecOptions
	// ExecResult reports one really-executed training iteration.
	ExecResult = train.ExecResult
)

// NewMLP builds an n-hidden-layer perceptron with ReLU activations and a
// linear head (dims like [in, h1, ..., out]), deterministically initialized
// from seed — the runtime's standard test network.
func NewMLP(dims []int, seed int64) *Network { return nn.MLP(dims, seed) }

// SGDOptimizer returns plain stochastic gradient descent at the given
// learning rate.
func SGDOptimizer(lr float64) Optimizer { return nn.SGD{LR: lr} }

// AdamOptimizer returns Adam with standard defaults at the given learning
// rate.
func AdamOptimizer(lr float64) Optimizer { return nn.NewAdam(lr) }

// ProfileNetwork derives a planner-ready Model from a real Network: one
// model layer per network layer, with analytic compute times and measured
// activation/parameter bytes at profileBatch rows of inDim features. The
// returned model's layer indices map one-to-one onto the network's layers,
// so any Plan an Engine produces for it is executable by NewExecutor — this
// is the bridge that closes the paper's planner→runtime loop.
func ProfileNetwork(name string, net *Network, inDim, profileBatch, defaultGBS int) (*Model, error) {
	return train.ProfileNetwork(name, net, inDim, profileBatch, defaultGBS)
}

// MeasureOptions configure measured (calibration-based) network profiling:
// warm-up iterations and the number of recorded iterations aggregated per
// layer.
type MeasureOptions = train.MeasureOptions

// ProfileNetworkMeasured is ProfileNetwork with measured per-layer times: it
// runs warm calibration iterations of the network's pooled-buffer execution
// path — the same kernels the Executor runs — and aggregates each layer's
// recorded forward/backward span durations by median, the paper's actual
// profiler loop. Byte accounting is identical to ProfileNetwork's, so the
// profiles differ only in their time columns. The calibration loop checks
// ctx between iterations, so deadlines and cancellation bound it.
func ProfileNetworkMeasured(ctx context.Context, name string, net *Network, inDim, profileBatch, defaultGBS int, mo MeasureOptions) (*Model, error) {
	return train.ProfileNetworkMeasured(ctx, name, net, inDim, profileBatch, defaultGBS, mo)
}

// NewExecutor builds a plan-driven executor for a planning result: the
// network is carved into the plan's stages (one replica per device) and the
// strategy's recommended schedule policy and re-computation setting are
// applied. The executor can then Step any number of training iterations.
func NewExecutor(pr *PlanResult, net *Network, optFactory func() Optimizer) (*Executor, error) {
	if pr == nil {
		return nil, errors.New("dapple: NewExecutor of a nil result")
	}
	return train.NewExecutor(pr.Plan, net, optFactory, ExecOptions{
		Policy: pr.Policy, Recompute: pr.NeedsRecompute,
	})
}

// ExecGantt renders a really-executed iteration's span trace as an ASCII
// timeline, one row per device — the real-runtime counterpart of Gantt.
func ExecGantt(res *ExecResult, width int) string {
	if res == nil || res.Trace == nil {
		return ""
	}
	return trace.Gantt(res.Trace, width)
}

// VerifyExecution checks the sim-vs-real contract: every device's event
// order in the really-executed trace equals the simulator's schedule of the
// same plan under the same policy, re-computation setting and micro-batch
// count. It returns nil when they match.
func VerifyExecution(pr *PlanResult, simRes *ScheduleResult, execRes *ExecResult) error {
	if pr == nil {
		return errors.New("dapple: VerifyExecution of a nil plan result")
	}
	return train.VerifyOrder(pr.Plan, simRes, execRes)
}
