package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"dapple"
	"dapple/internal/schedule"
	"dapple/internal/stats"
	"dapple/internal/train"
	"dapple/internal/transport"
)

// The traced run measures per-layer metrics from outside: harness spans
// around each public call, plus results the program already exports
// (ExecResult.Trace, CommSeconds, TCP.Stats). A workload's own section gets
// a fifth of the run's seconds with tracing on and a fifth with it off (the
// difference is the tracing overhead); the sections a workload does not
// exercise itself run once on a fixed fixture for a fixed, shorter time, so
// that every traced run reports every per-layer metric.
const (
	minTracedSteps = 20
	probeSeconds   = 1.0 // a section run on a fixture other than the workload's own
	probeCycles    = 3
	probeSlice     = 150 * time.Millisecond // one micro-probe
)

// ownSeconds is the traced share of the run: a fifth of the timed seconds.
func (r *run) ownSeconds() float64 { return r.seconds / 5 }

// traced runs the whole traced measurement of one workload.
func (r *run) traced(w workload) error {
	// Kernel and layer probes go first: train.mfu needs the measured GEMM
	// peak, and the dominance lines need nn.fwd_ms and nn.bwd_ms.
	r.probeTensor()
	r.probeNN()
	if err := w.layers(r); err != nil {
		return err
	}
	return r.fillLayers()
}

// fillLayers runs, on fixed fixtures, every section the workload's own part
// did not cover.
func (r *run) fillLayers() error {
	if !r.has("train.fwd_busy_ms") {
		fx, err := pipeCompute.build(r.seed)
		if err != nil {
			return err
		}
		if _, err := r.trainLayers(fx, probeSeconds); err != nil {
			return err
		}
	}
	if !r.has("dist.tcp_overhead_ms") {
		if err := r.sessionLayers(probeSeconds, 0); err != nil {
			return err
		}
	}
	if !r.has("dist.recover_ms_p50") {
		if err := r.recoverCycles(0, probeCycles); err != nil {
			return err
		}
	}
	if !r.has("planner.explored") {
		zoo := zooPairs()
		r.plannerLayers([]pair{zoo[4], zoo[9]}) // XLNet-36 on config-A(2), VGG-19 on config-B(16)
	}
	if err := r.paperFacts(); err != nil {
		return err
	}
	if err := r.probeStepOverhead(); err != nil {
		return err
	}
	if err := r.probeTransport(); err != nil {
		return err
	}
	if err := r.probeCheckpoint(); err != nil {
		return err
	}
	return r.probePredErr()
}

// trainLayers is the train section: the fixture's plan on two in-process
// executors stepped alternately — one untraced (the reference the overhead is
// measured against), one with the executor's span recording on and a harness
// span around every Step. It returns the untraced median step seconds.
func (r *run) trainLayers(fx *fixture, seconds float64) (float64, error) {
	plain, _, err := openWarm(fx, true)
	if err != nil {
		return 0, err
	}
	st, warm, err := openWarm(fx, false)
	if err != nil {
		return 0, err
	}
	drift, err := r.checkWarmups(fx, warm)
	if err != nil {
		return 0, err
	}
	r.set("train.loss_drift", drift, len(warm))

	// Untraced and traced steps alternate, so both see the same host
	// conditions and their medians differ by the tracing alone.
	var results []*train.ExecResult
	var plainS, walls []float64
	first := len(r.tr.spans)
	k := warmups
	for start := time.Now(); len(walls) < minTracedSteps || time.Since(start).Seconds() < 2*seconds; k++ {
		t0 := time.Now()
		_, err := plain.step(k)
		plainS = append(plainS, time.Since(t0).Seconds())
		if !r.op(err) {
			return 0, err
		}
		id := r.tr.begin("train.Executor.Step", k, -1)
		t0 = time.Now()
		_, err = st.step(k)
		wall := time.Since(t0).Seconds()
		r.tr.end(id)
		if !r.op(err) {
			return 0, err
		}
		r.tr.importExec(id, st.last)
		results, walls = append(results, st.last), append(walls, wall)
	}
	n := float64(len(results))
	plainMed := median(plainS)
	r.set("train.trace_overhead_pct", 100*(median(walls)-plainMed)/plainMed, len(walls))
	pct, tail := tailPercentile(plainS)
	r.set("train.step_ms_tail", ms(tail), len(plainS))
	r.set("train.step_tail_pctl", pct, len(plainS))

	// Allocation counters over a few more untraced steps on their own.
	const allocSteps = 10
	var m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m1)
	r.timedSteps(plain, k, allocSteps, 0)
	runtime.ReadMemStats(&m2)
	r.set("train.allocs_per_step", float64(m2.Mallocs-m1.Mallocs)/allocSteps, allocSteps)
	r.set("train.bytes_per_step", float64(m2.TotalAlloc-m1.TotalAlloc)/allocSteps, allocSteps)

	var fwd, bwd, ar, comm, exposed, overlap float64
	for _, res := range results {
		for _, s := range res.Trace.Spans {
			switch d := s.End - s.Start; s.Kind {
			case "fwd":
				fwd += d / n
			case "bwd":
				bwd += d / n
			default:
				ar += d / n
			}
		}
		// Summed over stages, the aggregation ExecResult.OverlapEfficiency
		// uses; the budget table below shows the per-device split.
		for i := range res.CommSeconds {
			comm += res.CommSeconds[i] / n
			exposed += res.CommWaitSeconds[i] / n
		}
		overlap += res.OverlapEfficiency() / n
	}
	devices := fx.devices()
	wallMean := stats.Mean(walls)
	r.set("train.fwd_busy_ms", ms(fwd), len(results))
	r.set("train.bwd_busy_ms", ms(bwd), len(results))
	r.set("train.ar_busy_ms", ms(ar), len(results))
	r.set("train.idle_share", 1-(fwd+bwd+ar)/(float64(devices)*wallMean), len(results))
	stages := len(fx.stages)
	r.set("schedule.bubble_analytic", float64(stages-1)/float64(fx.m+stages-1), 0)
	simRes, err := schedule.Run(fx.plan, schedule.Options{Policy: fx.policy, Recompute: fx.recompute})
	if err != nil {
		return 0, err
	}
	r.set("sim.idle_share", simRes.BubbleFraction, 0)
	over := 0.0
	if devices > runtime.GOMAXPROCS(0) {
		over = 1 // more device goroutines than cores: idle shares are not comparable
	}
	r.set("train.oversubscribed", over, 0)
	r.set("train.comm_ms", ms(comm), len(results))
	r.set("train.comm_exposed_ms", ms(exposed), len(results))
	r.set("train.overlap_eff", overlap, len(results))

	seqNet := fx.net.Clone()
	factory, err := fx.opt.Factory()
	if err != nil {
		return 0, err
	}
	seqOpt := factory()
	var seqErr error
	var seqS []float64
	r.tr.call("train.SequentialStep", -1, func() {
		seqS = timeFor(500*time.Millisecond, 3, func() {
			if _, err := train.SequentialStep(seqNet, fx.batch(0), seqOpt); err != nil {
				seqErr = err
			}
		})
	})
	if seqErr != nil {
		return 0, seqErr
	}
	r.set("train.seq_step_ms", ms(median(seqS)), len(seqS))
	r.set("train.speedup_vs_seq", median(seqS)/plainMed, len(plainS))
	if peak, ok := r.metrics["tensor.gemm_nn_gflops"]; ok {
		cores := float64(min(devices, runtime.GOMAXPROCS(0)))
		r.set("train.mfu", fx.stepFLOPs()/(peak.Value*1e9*cores)/plainMed, len(plainS))
	}

	rows, wall := budget(results, walls)
	var sync, link, harness float64
	for _, row := range rows {
		sync = max(sync, row.SyncWait)
		link += row.LinkWait / float64(len(rows))
		harness = row.Harness
	}
	r.set("budget.sync_wait_ms", ms(sync), len(results))
	r.set("budget.link_wait_ms", ms(link), len(results))
	r.set("budget.harness_ms", ms(harness), len(results))
	r.set("budget.gap_pct", 100*budgetGap(rows, wall), len(results))
	critical := layerSelf(r.tr.spans, first, "train.Executor.Step")
	for i := range critical {
		critical[i].Seconds /= n
	}
	printBudget(fx.name, rows, wall, critical)

	fmt.Printf("  idle share: measured %.3f, analytic (S-1)/(M+S-1) %.3f, simulated %.3f",
		r.metrics["train.idle_share"].Value, r.metrics["schedule.bubble_analytic"].Value, simRes.BubbleFraction)
	if over == 1 {
		fmt.Printf("  [oversubscribed: %d devices on %d cores, excluded from comparisons]", devices, runtime.GOMAXPROCS(0))
	}
	fmt.Println()
	r.dominance(fx, plainMed, exposed)
	return plainMed, nil
}

// dominance prints the acceptance ratios that say the workload stresses the
// layer it was built to stress.
func (r *run) dominance(fx *fixture, stepS, exposedS float64) {
	fmt.Printf("  dominance: exposed gradient sync is %.1f%% of the step", 100*exposedS/stepS)
	if fx.name == pipeCompute.name || fx.name == "pipe_gpipe_rc" {
		cores := float64(min(fx.devices(), runtime.GOMAXPROCS(0)))
		math := float64(fx.m) * (r.metrics["nn.fwd_ms"].Value + r.metrics["nn.bwd_ms"].Value) / 1e3
		fmt.Printf("; layer math M x (nn.fwd_ms + nn.bwd_ms) is %.1f%% of cores x step", 100*math/(cores*stepS))
	}
	fmt.Println()
}

// sessionLayers is the dist section: real loopback sessions of the
// session_tcp shape. Three sessions give the handshake and close medians;
// the last one runs the traced steps. The identical plan on an in-process
// executor is the reference the TCP overhead is measured against: inprocS
// is its median step seconds, measured here when the caller has none.
func (r *run) sessionLayers(seconds, inprocS float64) error {
	fx, err := sessionTCP.build(r.seed)
	if err != nil {
		return err
	}
	if inprocS <= 0 {
		twin, _, err := openWarm(fx, true)
		if err != nil {
			return err
		}
		steps, _ := r.timedSteps(twin, warmups, minTracedSteps, seconds/2)
		inprocS = median(steps)
	}

	var handshakes, closes, stepS []float64
	for sess := 0; sess < 3; sess++ {
		id := r.tr.begin("dist.NewCoordinator", sess, -1)
		s, err := openSession(fx, fx.net.Clone(), -1)
		r.tr.end(id)
		if !r.op(err) {
			return nil
		}
		handshakes = append(handshakes, s.handshakeS)
		st := &sessionStepper{fx, s}
		if _, err := warmUp(st); err != nil {
			s.abandon()
			return err
		}
		if sess == 2 {
			misses, wire := transport.BufMisses(), s.wireStats()
			start := time.Now()
			for k := warmups; len(stepS) < minTracedSteps || time.Since(start).Seconds() < seconds; k++ {
				id := r.tr.begin("dist.Coordinator.Step", k, -1)
				t0 := time.Now()
				_, err := st.step(k)
				d := time.Since(t0).Seconds()
				r.tr.end(id)
				if !r.op(err) {
					s.abandon()
					return nil
				}
				stepS = append(stepS, d)
			}
			after, n := s.wireStats(), float64(len(stepS))
			r.set("transport.wire_bytes_per_step", float64(after.BytesSent-wire.BytesSent)/n, len(stepS))
			r.set("transport.frames_per_step", float64(after.FramesSent-wire.FramesSent)/n, len(stepS))
			r.set("transport.buf_misses", float64(transport.BufMisses()-misses), len(stepS))
		}
		id = r.tr.begin("dist.Coordinator.Close", sess, -1)
		t0 := time.Now()
		err = s.close()
		closes = append(closes, time.Since(t0).Seconds())
		r.tr.end(id)
		r.op(err)
	}
	r.set("dist.handshake_ms", ms(median(handshakes)), len(handshakes))
	r.set("dist.close_ms", ms(median(closes)), len(closes))
	pct, tail := tailPercentile(stepS)
	r.set("dist.step_ms_p50", ms(median(stepS)), len(stepS))
	r.set("dist.step_ms_tail", ms(tail), len(stepS))
	r.set("dist.step_tail_pctl", pct, len(stepS))
	tcpS := median(stepS)
	r.set("dist.inproc_step_ms", ms(inprocS), 0)
	r.set("dist.tcp_overhead_ms", ms(tcpS-inprocS), len(stepS))
	fmt.Printf("\n  dominance: session_tcp step %.3f ms, same plan in-process %.3f ms: TCP overhead is %.1f%% of the step\n",
		ms(tcpS), ms(inprocS), 100*(tcpS-inprocS)/tcpS)
	return nil
}

func sessionTCPLayers(r *run) error {
	fx, err := sessionTCP.build(r.seed)
	if err != nil {
		return err
	}
	// The train metrics of a session workload are its plan's on an
	// in-process executor; a session's workers export no trace.
	inprocS, err := r.trainLayers(fx, r.ownSeconds())
	if err != nil {
		return err
	}
	return r.sessionLayers(r.ownSeconds(), inprocS)
}

// recoverCycles is the recovery section: traced churn cycles of the
// session_recover shape, for at least minimum cycles and the given seconds.
func (r *run) recoverCycles(seconds float64, minimum int) error {
	fx, err := sessionRecover.build(r.seed)
	if err != nil {
		return err
	}
	want, err := fx.sequentialLosses(cycleSteps)
	if err != nil {
		return err
	}
	if _, ok := r.recoverCycle(fx, -1); !ok {
		return nil
	}
	var recovers, handshakes, closes []float64
	start := time.Now()
	for n := 0; n < minimum || time.Since(start).Seconds() < seconds; n++ {
		cy, ok := r.recoverCycle(fx, n)
		if !ok {
			return nil
		}
		r.checkCycle(cy, want)
		recovers = append(recovers, cy.recoverS)
		handshakes, closes = append(handshakes, cy.handshakeS), append(closes, cy.closeS)
	}
	r.set("dist.recover_ms_p50", ms(median(recovers)), len(recovers))
	r.set("dist.recover_ms_max", ms(stats.Max(recovers)), len(recovers))
	// On session_recover these are its own handshakes and closes; on other
	// workloads the dist section has already reported session_tcp's.
	r.set("dist.handshake_ms", ms(median(handshakes)), len(handshakes))
	r.set("dist.close_ms", ms(median(closes)), len(closes))
	return nil
}

func recoverLayers(r *run) error {
	if err := r.recoverCycles(r.ownSeconds(), probeCycles); err != nil {
		return err
	}
	fx, err := sessionRecover.build(r.seed)
	if err != nil {
		return err
	}
	_, err = r.trainLayers(fx, r.ownSeconds())
	return err
}

// plannerLayers is the planner section: one traced cold Engine.Plan per
// pair, then, on each chosen plan, the cost of one call into core,
// schedule and sim, and a plan-cache hit.
func (r *run) plannerLayers(pairs []pair) {
	order := make([]int, len(pairs))
	for i := range order {
		order[i] = i
	}
	round, _, ok := r.planRound(pairs, order, 0)
	if !ok {
		return
	}
	var slowest float64
	var explored int
	var latencyNS, buildUS, simMS, tasksPerS, hitUS []float64
	for i, p := range round {
		slowest = max(slowest, p.seconds)
		explored += p.res.Explored
		plan := p.res.Plan
		opts := schedule.Options{Policy: p.res.Policy, Recompute: p.res.NeedsRecompute}

		r.tr.call("core.Plan.Latency", i, func() {
			latencyNS = append(latencyNS, 1e9*median(timeFor(probeSlice/10, 100, func() { sink += plan.Latency() })))
		})
		r.tr.call("schedule.BuildGraph", i, func() {
			buildUS = append(buildUS, 1e6*median(timeFor(probeSlice/10, 3, func() {
				if _, err := schedule.BuildGraph(plan, opts); err != nil {
					r.op(err)
				}
			})))
		})
		// Eight times the planned global batch: a long schedule, so the
		// simulator's per-task cost dominates its set-up.
		long := opts
		long.M = 8 * plan.M()
		r.tr.call("sim.schedule.Run", i, func() {
			tasks := 0
			s := median(timeFor(probeSlice/10, 3, func() {
				res, err := schedule.Run(plan, long)
				if err != nil {
					r.op(err)
					return
				}
				tasks = len(res.Sim.Spans)
			}))
			simMS, tasksPerS = append(simMS, ms(s)), append(tasksPerS, float64(tasks)/s)
		})
		eng, err := dapple.NewEngine(dapple.WithCluster(pairs[i].cluster))
		if err == nil {
			_, err = eng.Plan(context.Background(), pairs[i].model)
		}
		if !r.op(err) {
			return
		}
		r.tr.call("engine.Plan(cached)", i, func() {
			hitUS = append(hitUS, 1e6*median(timeFor(probeSlice/10, 100, func() {
				if _, err := eng.Plan(context.Background(), pairs[i].model); err != nil {
					r.op(err)
				}
			})))
		})
	}
	n := len(pairs)
	r.set("planner.search_ms_max", ms(slowest), n)
	r.set("planner.explored", float64(explored), 0)
	r.set("core.latency_ns", median(latencyNS), n)
	r.set("schedule.build_us", median(buildUS), n)
	r.set("sim.run_ms", median(simMS), n)
	r.set("sim.tasks_per_s", median(tasksPerS), n)
	r.set("engine.cache_hit_us", median(hitUS), n)
}

func planZooLayers(r *run) error {
	// One traced round is a fifth of the five timed rounds.
	r.plannerLayers(zooPairs())
	return nil
}

// paperFacts reports, from the pipe_compute shape, the two comparisons the
// paper's abstract makes against GPipe: DAPPLE's peak stash against GPipe's
// all-M stash on the same plan without re-computation (paper: 12 % less
// memory), and DAPPLE's throughput against GPipe with re-computation (paper:
// 1.6x). They are reported facts of this host and commit, not claims.
func (r *run) paperFacts() error {
	dapplePA, err := pipeCompute.build(r.seed)
	if err != nil {
		return err
	}
	gpipeAll := pipeCompute
	gpipeAll.name, gpipeAll.policy = "pipe_gpipe_all_m", schedule.GPipe
	shapes := []shape{pipeCompute, gpipeAll, pipeGPipeRC()}
	stash := make([]int64, len(shapes))
	stepS := make([]float64, len(shapes))
	for i, s := range shapes {
		fx := *dapplePA
		fx.shape = s
		st, _, err := openWarm(&fx, true)
		if err != nil {
			return err
		}
		steps, _ := r.timedSteps(st, warmups, 12, 0)
		stash[i], stepS[i] = st.stash, median(steps)
	}
	r.set("train.gpipe_stash_bytes", float64(stash[1]), 0)
	saving := 100 * (1 - float64(stash[0])/float64(stash[1]))
	r.set("train.stash_saving_vs_gpipe_pct", saving, 0)
	r.set("train.dapple_vs_gpipe_rc", stepS[2]/stepS[0], 12)
	fmt.Printf("\npaper comparisons on the pipe_compute shape (facts of this host, not claims):\n"+
		"  peak stash: DAPPLE %d B vs GPipe all-M %d B = %.1f%% less (paper: 12%% less memory)\n"+
		"  throughput: DAPPLE %.3f ms/step vs GPipe+recompute %.3f ms/step = %.2fx (paper: 1.6x)\n",
		stash[0], stash[1], saving, ms(stepS[0]), ms(stepS[2]), stepS[2]/stepS[0])
	return nil
}
