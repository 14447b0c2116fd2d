// Command dapple plans and simulates hybrid data/pipeline-parallel training
// for the benchmark models on the paper's cluster configurations, and can
// really execute the chosen plan on the concurrent mini-runtime. Planning
// goes through the engine API, so every strategy — the DAPPLE planner or one
// of the paper's baselines — runs through the same path.
//
// Usage:
//
//	dapple -model BERT-48 -config A -servers 2
//	dapple -model GNMT-16 -config B -strategy pipedream
//	dapple -model GNMT-16 -config C -servers 16 -gbs 2048 -policy pb
//	dapple -model VGG-19 -config A -gantt -trace out.json
//	dapple -execute -config B -servers 4 -gbs 128 -seed 7
//	dapple -models              # list zoo models
//	dapple -strategies          # list planning strategies
//
// With -execute the command profiles a real synthetic MLP instead of a zoo
// model (-model is ignored), plans it, simulates the plan, then really runs
// the planned pipeline — goroutines as devices, channels as links — checks
// the gradients against sequential training, and verifies the real
// per-device event order against the simulated schedule.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"time"

	"dapple"
	"dapple/internal/cliutil"
	"dapple/internal/core"
	"dapple/internal/nn"
	"dapple/internal/stats"
	"dapple/internal/trace"
	"dapple/internal/train"
	"dapple/internal/transport"
)

// Synthetic problem geometry of -execute: inputs project onto two latent
// axes; the class is the quadrant.
const (
	execInDim   = 16
	execClasses = 4
)

func main() {
	var (
		modelName  = flag.String("model", "BERT-48", "zoo model name (see -models)")
		config     = flag.String("config", "A", cliutil.ConfigHelp)
		servers    = flag.Int("servers", 0, "server count (default: 2 for A, 16 for B/C)")
		gbs        = flag.Int("gbs", 0, "global batch size (default: model's)")
		strategy   = flag.String("strategy", "dapple", "planning strategy (see -strategies)")
		policy     = flag.String("policy", "", cliutil.PolicyHelp+" (default: strategy's recommendation)")
		recompute  = flag.Bool("recompute", false, "force activation re-computation")
		timeout    = flag.Duration("timeout", 0, "abort planning/simulation after this long (0 = no limit)")
		gantt      = flag.Bool("gantt", false, "print the simulated timeline")
		traceOut   = flag.String("trace", "", "write Chrome trace JSON to this file")
		planOut    = flag.String("plan-out", "", "write the chosen plan as JSON to this file")
		planIn     = flag.String("plan-in", "", "skip planning: load a plan JSON written by -plan-out")
		listAll    = flag.Bool("models", false, "list zoo models and exit")
		listStrats = flag.Bool("strategies", false, "list planning strategies and exit")
		execute    = flag.Bool("execute", false, "really execute the plan on a synthetic MLP with the concurrent runtime (-model is ignored)")
		execHidden = flag.Int("exec-hidden", 3, "hidden layers of the -execute MLP")
		execWidth  = flag.Int("exec-width", 64, "hidden width of the -execute MLP")
		execIters  = flag.Int("exec-iters", 5, "training iterations to really execute")
		execWkrs   = flag.String("exec-workers", "", "with -execute: run as the coordinator of a multi-process session over these comma-separated dapple-worker addresses (rank order)")
		heartbeat  = flag.Duration("heartbeat", 500*time.Millisecond, "with -exec-workers: liveness heartbeat interval; silent ranks are declared dead after 10 intervals (0 disables)")
		ckptDir    = flag.String("checkpoint-dir", "", "with -exec-workers: persist consistent snapshots here and resume from the latest on start")
		ckptEvery  = flag.Int("checkpoint-every", 1, "with -exec-workers and -checkpoint-dir: snapshot every N steps")
		ckptKeep   = flag.Int("checkpoint-keep", 0, "with -checkpoint-dir: prune all but the newest N snapshots after each save (0 keeps everything)")
		elastic    = flag.Bool("elastic", false, "with -exec-workers: listen for dapple-worker -join knocks and admit replacements into the running session")
		coordLis   = flag.String("coord-listen", "127.0.0.1:0", "with -elastic: coordinator listen address for joiners")
		minRanks   = flag.Int("min-ranks", 0, "with -elastic: before each step, wait for joiners until at least this many worker ranks are live (0 never waits)")
		measured   = flag.Bool("measured-profile", false, "with -execute: calibrate per-layer times by measuring warm real execution instead of the analytic FLOP model")
		measIters  = flag.Int("measure-iters", 5, "with -measured-profile: recorded calibration iterations aggregated per layer")
	)
	planFlags := cliutil.RegisterPlanFlags()
	profFlags := cliutil.RegisterProfileFlags()
	seed := cliutil.RegisterSeedFlag()
	flag.Parse()

	stopProf, err := profFlags.Start()
	if err != nil {
		fatalf("%v", err)
	}
	defer stopProf()

	if *listAll {
		for _, m := range dapple.Zoo() {
			fmt.Println(m)
		}
		return
	}
	if *listStrats {
		for _, s := range dapple.Strategies() {
			fmt.Printf("%-10s %s\n", s.Name, s.Describe)
		}
		return
	}

	c, err := cliutil.PickConfig(*config, *servers)
	if err != nil {
		fatalf("%v", err)
	}
	eng, err := dapple.NewEngine(dapple.WithCluster(c), dapple.WithStrategy(*strategy))
	if err != nil {
		fatalf("%v", err)
	}

	ctx, cancel := cliutil.RootContext(*timeout)
	defer cancel()

	var m *dapple.Model
	var master *dapple.Network
	if *execute {
		// Plan-then-execute mode: the model is a real network, profiled
		// analytically by default, or measured (calibrated by warm real
		// execution) with -measured-profile. The measured loop is the
		// paper's profiler: calibrate, re-plan on measured costs, then
		// really execute.
		dims := []int{execInDim}
		for i := 0; i < *execHidden; i++ {
			dims = append(dims, *execWidth)
		}
		dims = append(dims, execClasses)
		master = dapple.NewMLP(dims, *seed)
		name := fmt.Sprintf("mlp-h%d-w%d", *execHidden, *execWidth)
		if *measured {
			m, err = dapple.ProfileNetworkMeasured(ctx, name, master, execInDim, 16, 128,
				dapple.MeasureOptions{Iters: *measIters})
		} else {
			m, err = dapple.ProfileNetwork(name, master, execInDim, 16, 128)
		}
		if err != nil {
			fatalf("profile network: %v", err)
		}
		if *measured {
			fmt.Println("profile: measured (per-layer times calibrated from warm real execution)")
		} else {
			fmt.Println("profile: analytic (synthetic FLOP model; -measured-profile to calibrate)")
		}
	} else {
		m = dapple.ModelByName(*modelName)
		if m == nil {
			fatalf("unknown model %q; use -models", *modelName)
		}
	}

	fmt.Printf("model:   %v\n", m)
	fmt.Printf("cluster: %v\n", c)

	var plan *dapple.Plan
	pol := dapple.DapplePA
	needRC := false
	if *planIn != "" {
		data, err := os.ReadFile(*planIn)
		if err != nil {
			fatalf("read plan: %v", err)
		}
		plan, err = core.UnmarshalPlan(data, m, c)
		if err != nil {
			fatalf("load plan: %v", err)
		}
		fmt.Printf("plan:    %v (loaded from %s)\n", plan, *planIn)
	} else {
		start := time.Now()
		pr, err := eng.PlanWith(ctx, m, planFlags.Apply(dapple.PlanOptions{GBS: *gbs}))
		if err != nil {
			fatalf("planning failed: %v", err)
		}
		plan, pol, needRC = pr.Plan, pr.Policy, pr.NeedsRecompute
		fmt.Printf("plan:    %v (strategy %s, policy %v, %.1fs)\n",
			pr, pr.Strategy, pr.Policy, time.Since(start).Seconds())
		if pr.NeedsRecompute {
			fmt.Println("         (requires activation re-computation to fit memory)")
		}
	}
	if *planOut != "" {
		data, err := json.MarshalIndent(plan, "", "  ")
		if err != nil {
			fatalf("encode plan: %v", err)
		}
		if err := os.WriteFile(*planOut, data, 0o644); err != nil {
			fatalf("write plan: %v", err)
		}
		fmt.Printf("wrote plan to %s\n", *planOut)
	}

	if *policy != "" {
		pol, err = cliutil.ParsePolicy(*policy)
		if err != nil {
			fatalf("%v", err)
		}
	}
	rc := *recompute || needRC
	res, err := eng.Simulate(ctx, plan, dapple.ScheduleOptions{
		Policy:    pol,
		Recompute: rc,
	})
	if err != nil {
		fatalf("simulation failed: %v", err)
	}
	fmt.Printf("runtime: %s/iter, %.1f samples/s, bubbles %.1f%%\n",
		stats.Seconds(res.IterTime), res.Throughput(), 100*res.BubbleFraction)
	fmt.Printf("memory:  avg peak %s, max peak %s", stats.BytesF(res.AvgPeakMem), stats.Bytes(res.MaxPeakMem))
	if res.OOM {
		fmt.Printf("  ** OOM on stage %d **", res.OOMStage)
	}
	fmt.Println()
	for i, st := range res.PerStage {
		fmt.Printf("  stage %d: peak %s (static %s), util %.0f%%, warmup K=%d\n",
			i, stats.Bytes(st.PeakMem), stats.Bytes(st.StaticMem), 100*st.Utilization, st.Warmup)
	}

	if *gantt {
		fmt.Println()
		fmt.Print(trace.Gantt(res.Sim, 120))
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatalf("create trace: %v", err)
		}
		defer f.Close()
		if err := trace.WriteChrome(f, res.Sim); err != nil {
			fatalf("write trace: %v", err)
		}
		fmt.Printf("wrote Chrome trace to %s\n", *traceOut)
	}

	if *execute {
		if *execWkrs != "" {
			// Survivor re-plan: a fresh engine on the shrunk cluster (the
			// surviving workers' servers) re-runs the same strategy. The
			// planner derives the micro-batch size from model and GBS alone,
			// so a same-GBS re-plan keeps the data feed's shape.
			replan := func(alive []int) (*dapple.Plan, []int, error) {
				c2 := c
				c2.Servers = len(alive)
				eng2, err := dapple.NewEngine(dapple.WithCluster(c2), dapple.WithStrategy(*strategy))
				if err != nil {
					return nil, nil, err
				}
				pr, err := eng2.PlanWith(ctx, m, planFlags.Apply(dapple.PlanOptions{GBS: plan.GBS}))
				if err != nil {
					return nil, nil, err
				}
				if pr.Plan.MicroBatch != plan.MicroBatch || pr.Plan.GBS != plan.GBS {
					return nil, nil, fmt.Errorf("re-plan changed the batch geometry (%d/%d vs %d/%d)",
						pr.Plan.GBS, pr.Plan.MicroBatch, plan.GBS, plan.MicroBatch)
				}
				dr := make([]int, pr.Plan.Cluster.NumDevices())
				for d := range dr {
					dr[d] = alive[pr.Plan.Cluster.Server(dapple.DeviceID(d))%len(alive)]
				}
				fmt.Printf("recover: re-planned onto %d surviving workers: %v\n", len(alive), pr.Plan)
				return pr.Plan, dr, nil
			}
			ft := faultTolerance{heartbeat: *heartbeat, ckptDir: *ckptDir, ckptEvery: *ckptEvery,
				ckptKeep: *ckptKeep, replan: replan,
				elastic: *elastic, coordListen: *coordLis, minRanks: *minRanks}
			runPlanDistributed(ctx, master, plan, pol, rc, *execIters, *seed, strings.Split(*execWkrs, ","), ft)
		} else {
			runPlan(ctx, master, plan, res, pol, rc, *execIters, *seed, *gantt)
		}
	}
}

// runPlan really executes the plan for iters training iterations on the
// concurrent runtime, checking gradient equivalence against sequential
// training every iteration and the per-device event order against the
// simulated schedule. The loop honors ctx: -timeout and ctrl-C abort the
// worker goroutines mid-step.
func runPlan(ctx context.Context, master *dapple.Network, plan *dapple.Plan, simRes *dapple.ScheduleResult,
	pol dapple.SchedulePolicy, rc bool, iters int, seed int64, gantt bool) {
	nWorkers := 0
	for _, s := range plan.Stages {
		nWorkers += s.Replicas()
	}
	fmt.Printf("\nexecute: %d iterations, %d worker goroutines, policy %v, recompute %v\n",
		iters, nWorkers, pol, rc)

	ex, err := train.NewExecutor(plan, master, func() nn.Optimizer { return nn.NewAdam(2e-3) },
		train.ExecOptions{Policy: pol, Recompute: rc})
	if err != nil {
		fatalf("build executor: %v", err)
	}
	seq := master.Clone()
	seqOpt := nn.NewAdam(2e-3)

	rng := rand.New(rand.NewSource(seed + 1))
	proj := train.NewQuadrantProblem(rng, execInDim)

	var execRes *train.ExecResult
	for it := 1; it <= iters; it++ {
		micros := train.QuadrantBatches(rng, proj, plan.M(), plan.MicroBatch)
		execRes, err = ex.StepContext(ctx, micros)
		if err != nil {
			fatalf("execute iteration %d: %v", it, err)
		}
		seqLoss, err := train.SequentialStep(seq, micros, seqOpt)
		if err != nil {
			fatalf("sequential reference: %v", err)
		}
		drift := math.Abs(execRes.Loss - seqLoss)
		fmt.Printf("  iter %2d  loss %.4f  (sequential %.4f, drift %.1e, wall %s)\n",
			it, execRes.Loss, seqLoss, drift, stats.Seconds(execRes.WallTime))
		if drift > 1e-9 {
			fatalf("gradient equivalence violated at iteration %d (drift %g)", it, drift)
		}
	}
	if err := train.VerifyOrder(plan, simRes, execRes); err != nil {
		fatalf("sim-vs-real order mismatch: %v", err)
	}
	fmt.Printf("execute: per-device event order matches the simulated schedule; warmup K=%v, peak stash %v micro-batches\n",
		execRes.Warmup, execRes.MaxStash)
	fmt.Printf("execute: real wall %s/iter vs simulated %s/iter (synthetic device model)\n",
		stats.Seconds(execRes.WallTime), stats.Seconds(simRes.IterTime))
	if gantt {
		fmt.Println()
		fmt.Print(trace.Gantt(execRes.Trace, 120))
	}
}

// faultTolerance carries the session's fault-tolerance configuration from
// the flag layer into the distributed drive loop.
type faultTolerance struct {
	heartbeat   time.Duration
	ckptDir     string
	ckptEvery   int
	ckptKeep    int
	replan      train.ReplanFunc
	elastic     bool
	coordListen string
	minRanks    int
}

// runPlanDistributed executes the plan as a multi-process session: this
// process becomes the coordinator of the dapple-worker processes at addrs,
// shards the plan's devices across them (device d goes to worker
// Server(d) mod W, so one worker per server when counts line up), broadcasts
// the master weights, and gates each iteration on every worker's report
// while checking loss drift against the in-process sequential reference.
// Cross-process loss is compared at 1e-6 (collectives sum in a different
// order than the in-process ring, so bit-identity with the 1e-9 in-process
// bar is not expected).
//
// The session is survivable: a worker dying mid-run triggers a re-plan onto
// the survivors, a restore of the last consistent snapshot, and a rewind of
// the data feed — the drift gate still holds for every completed iteration.
// With -checkpoint-dir the session also resumes from the newest on-disk
// checkpoint, skipping the iterations it already completed.
func runPlanDistributed(ctx context.Context, master *dapple.Network, plan *dapple.Plan,
	pol dapple.SchedulePolicy, rc bool, iters int, seed int64, addrs []string, ft faultTolerance) {
	workers := len(addrs)
	deviceRanks := make([]int, plan.Cluster.NumDevices())
	for d := range deviceRanks {
		deviceRanks[d] = plan.Cluster.Server(dapple.DeviceID(d)) % workers
	}
	fmt.Printf("\nexecute: distributed session, %d worker processes, policy %v, recompute %v\n",
		workers, pol, rc)

	// An elastic coordinator must itself listen: joiners knock on it. The
	// default coordinator is dial-only.
	var t *transport.TCP
	if ft.elastic {
		var err error
		if t, err = transport.ListenTCP(ft.coordListen); err != nil {
			fatalf("coordinator listen: %v", err)
		}
	} else {
		t = transport.NewTCP()
	}
	t.SetRank(workers)
	defer t.Close()
	// Retrying dials make bring-up order-free: workers launched moments
	// after the coordinator are still joined, bounded by one dial window.
	dialCtx, dialCancel := context.WithTimeout(ctx, 30*time.Second)
	defer dialCancel()
	for r, addr := range addrs {
		if err := t.DialRetry(dialCtx, r, addr); err != nil {
			fatalf("dial worker %d at %s: %v", r, addr, err)
		}
	}
	peers := make([]int, workers)
	for r := range peers {
		peers[r] = r
	}
	if err := t.WaitPeers(ctx, peers); err != nil {
		fatalf("connect workers: %v", err)
	}

	// The sequential reference must start from the pre-restore weights:
	// NewCoordinator overwrites master from the checkpoint directory when
	// one is configured, and the reference fast-forwards through the
	// already-completed iterations instead.
	seq := master.Clone()
	seqOpt := nn.NewAdam(2e-3)

	opts := []train.SessionOption{
		train.WithReplan(ft.replan),
		train.WithStepTimeout(2 * time.Minute),
	}
	if ft.heartbeat > 0 {
		opts = append(opts, train.WithHeartbeat(ft.heartbeat, 10*ft.heartbeat))
	}
	if ft.ckptDir != "" {
		opts = append(opts, train.WithCheckpoint(ft.ckptDir, ft.ckptEvery))
	}
	if ft.ckptKeep > 0 {
		opts = append(opts, train.WithCheckpointRetention(ft.ckptKeep))
	}
	if ft.elastic {
		seedAddrs := make(map[int]string, workers)
		for r, addr := range addrs {
			seedAddrs[r] = addr
		}
		opts = append(opts, train.WithElastic(seedAddrs))
		// The joiner harness (and a human replacing a dead worker) scrapes
		// this line for the knock address.
		fmt.Printf("execute: elastic session; join with: dapple-worker -join %s\n", t.Addr())
	}
	coord, err := train.NewCoordinator(ctx, t, plan, master, train.OptSpec{Kind: "adam", LR: 2e-3},
		train.ExecOptions{Policy: pol, Recompute: rc}, deviceRanks, workers, opts...)
	if err != nil {
		fatalf("session handshake: %v", err)
	}

	// The data feed is deterministic from the seed and pre-generated, so a
	// recovery (or a restart from a checkpoint) can rewind or fast-forward
	// to any iteration.
	rng := rand.New(rand.NewSource(seed + 1))
	proj := train.NewQuadrantProblem(rng, execInDim)
	batches := make([][]train.Batch, iters)
	for it := range batches {
		batches[it] = train.QuadrantBatches(rng, proj, plan.M(), plan.MicroBatch)
	}
	resume := coord.CompletedSteps()
	if resume > 0 {
		fmt.Printf("execute: resuming from checkpoint at step %d\n", resume)
		if resume > iters {
			fatalf("checkpoint is at step %d, beyond -exec-iters %d", resume, iters)
		}
	}
	want := make([]float64, iters) // sequential reference losses, filled in step order
	for it := 0; it < resume; it++ {
		if want[it], err = train.SequentialStep(seq, batches[it], seqOpt); err != nil {
			fatalf("sequential reference: %v", err)
		}
	}
	seqDone := resume
	recoveries, failures, joins := 0, 0, 0
	for it := resume; it < iters; {
		if ft.minRanks > 0 && len(coord.Alive()) < ft.minRanks {
			fmt.Printf("execute: %d/%d ranks live; waiting for a joiner\n", len(coord.Alive()), ft.minRanks)
			if err := coord.AwaitJoin(ctx); err != nil {
				fatalf("await join: %v", err)
			}
		}
		start := time.Now()
		loss, err := coord.Step(ctx, batches[it])
		if err != nil {
			var rec *train.Recovered
			if errors.As(err, &rec) {
				recoveries++
				if recoveries > 2*workers {
					fatalf("session recovered %d times for %d workers; giving up", recoveries, workers)
				}
				joins += len(rec.Joined)
				switch {
				case rec.Cause == nil && len(rec.Joined) > 0:
					fmt.Printf("expand: admitted ranks %v at iteration %d; session now %v; rewound to iteration %d\n",
						rec.Joined, it+1, coord.Alive(), rec.Resume+1)
				case len(rec.Joined) > 0:
					failures++
					fmt.Printf("recover: lost ranks %v, admitted %v at iteration %d; rewound to iteration %d\n",
						rec.Lost, rec.Joined, it+1, rec.Resume+1)
				default:
					failures++
					fmt.Printf("recover: lost ranks %v at iteration %d; rewound to iteration %d\n",
						rec.Lost, it+1, rec.Resume+1)
				}
				it = rec.Resume
				continue
			}
			fatalf("distributed iteration %d: %v", it+1, err)
		}
		if it == seqDone {
			if want[it], err = train.SequentialStep(seq, batches[it], seqOpt); err != nil {
				fatalf("sequential reference: %v", err)
			}
			seqDone++
		}
		drift := math.Abs(loss - want[it])
		fmt.Printf("  iter %2d  loss %.4f  (sequential %.4f, drift %.1e, wall %s)\n",
			it+1, loss, want[it], drift, stats.Seconds(time.Since(start).Seconds()))
		if drift > 1e-6 {
			fatalf("distributed loss diverged at iteration %d (drift %g)", it+1, drift)
		}
		it++
	}
	st := t.Stats()
	if failures > 0 {
		fmt.Printf("execute: survived %d worker failure(s); all completed iterations match sequential within 1e-6\n", failures)
	}
	if joins > 0 {
		fmt.Printf("execute: admitted %d replacement worker(s) into the running session\n", joins)
	}
	fmt.Printf("execute: distributed losses match sequential within 1e-6; coordinator moved %s out / %s in\n",
		stats.Bytes(st.BytesSent), stats.Bytes(st.BytesRecv))
	if err := coord.Close(); err != nil {
		fatalf("close session: %v", err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
