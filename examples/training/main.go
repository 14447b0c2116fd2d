// Plan-driven real training (§V runtime semantics, for real): profile a real
// MLP into a planner model, let the Engine search a hybrid data/pipeline
// plan for a real cluster topology, then *execute that plan* — goroutines as
// devices, channels as links, ring all-reduce for replicated stages — while
// training the same network sequentially on one "device" as the ground
// truth.
//
// This is the executable form of the paper's whole workflow, planner to
// runtime: losses and parameters must agree at every step ("all pipeline
// latency optimizations give equivalent gradients ... convergence is safely
// preserved", §VI-A), and the real execution's per-device event order must
// match the discrete-event simulation of the very same plan, which the final
// verification asserts. Run with -seed to vary the synthetic data
// reproducibly.
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"math/rand"

	"dapple"
	"dapple/internal/cliutil"
	"dapple/internal/train"
)

func main() {
	seed := cliutil.RegisterSeedFlag()
	flag.Parse()

	const (
		inDim, classes = 16, 4
		iterations     = 30
	)

	// A real 7-layer network, profiled so the planner can partition it.
	master := dapple.NewMLP([]int{inDim, 64, 64, 32, classes}, *seed)
	model, err := dapple.ProfileNetwork("mlp-7", master, inDim, 16, 128)
	if err != nil {
		log.Fatal(err)
	}

	// Plan it on a 4-device cluster through the Engine — the same front door
	// the simulation examples use.
	eng, err := dapple.NewEngine(
		dapple.WithCluster(dapple.ConfigB(4)),
		dapple.WithStrategy("dapple"),
	)
	if err != nil {
		log.Fatal(err)
	}
	ctx, cancel := cliutil.RootContext(0)
	defer cancel()
	pr, err := eng.Plan(ctx, model)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("model:   %v\n", model)
	fmt.Printf("plan:    %v (policy %v, recompute %v)\n", pr.Plan, pr.Policy, pr.NeedsRecompute)

	// Carve the real network into the plan's stages once; step it many times.
	ex, err := dapple.NewExecutor(pr, master, func() dapple.Optimizer { return dapple.AdamOptimizer(2e-3) })
	if err != nil {
		log.Fatal(err)
	}
	seq := master.Clone()
	seqOpt := dapple.AdamOptimizer(2e-3)

	// Synthetic 4-class problem: class = quadrant of two latent projections.
	rng := rand.New(rand.NewSource(*seed + 1))
	proj := train.NewQuadrantProblem(rng, inDim)
	makeMicros := func() []dapple.TrainBatch {
		return train.QuadrantBatches(rng, proj, pr.Plan.M(), pr.Plan.MicroBatch)
	}

	fmt.Printf("%4s  %10s  %10s  %9s\n", "iter", "sequential", "executed", "drift")
	var last *dapple.ExecResult
	for it := 1; it <= iterations; it++ {
		micros := makeMicros()
		res, err := ex.StepContext(ctx, micros)
		if err != nil {
			log.Fatal(err)
		}
		seqLoss, err := train.SequentialStep(seq, micros, seqOpt)
		if err != nil {
			log.Fatal(err)
		}
		drift := math.Abs(res.Loss - seqLoss)
		if it%5 == 0 || it == 1 {
			fmt.Printf("%4d  %10.4f  %10.4f  %9.1e\n", it, seqLoss, res.Loss, drift)
		}
		if drift > 1e-9 {
			log.Fatalf("plan execution diverged from sequential at iter %d (drift %g)", it, drift)
		}
		last = res
	}

	// Sim-vs-real: the executed schedule must order events exactly like the
	// discrete-event simulation of the same plan.
	simRes, err := eng.SimulatePlan(ctx, pr)
	if err != nil {
		log.Fatal(err)
	}
	if err := dapple.VerifyExecution(pr, simRes, last); err != nil {
		log.Fatalf("sim-vs-real mismatch: %v", err)
	}
	fmt.Printf("\nper-device event order matches the simulated schedule (warmup K=%v)\n", last.Warmup)
	fmt.Printf("peak stash per stage: %v micro-batches of %d in flight\n", last.MaxStash, last.M)
	fmt.Println("\nreal execution timeline (one row per device):")
	fmt.Print(dapple.ExecGantt(last, 100))
	fmt.Println("\nidentical losses & parameters vs sequential -> convergence preserved,")
	fmt.Println("with the planner's plan — stages, replication, placement — really executed.")
}
