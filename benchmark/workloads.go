package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"sort"
	"time"

	"dapple"
	"dapple/internal/train"
)

// Counts the benchmark fixes. Set-up is repeated so that setup_s is a
// median; the minima keep a short -seconds from measuring too little.
const (
	setupReps      = 5
	planSetupReps  = 3 // a plan_zoo set-up contains a whole discarded round
	minSteps       = 100
	minCycles      = 10
	minRounds      = 3
	ownPlanGPUs    = 16 // a training workload's net is planned onto config-B(16)
	ownPlanBatch   = 5  // cold plans per plan_s sample on a training workload
	ownPlanBatches = 11

	cycleSteps = 10 // session_recover: committed steps per cycle
	dieAtStep  = 5  // session_recover: rank 1 dies when step 5 is announced
)

// workload is one named benchmark workload. endToEnd measures with tracing
// off; layers is the workload's own part of the traced run (the shared
// probes fill in the layers the workload does not exercise).
type workload struct {
	endToEnd func(r *run) error
	layers   func(r *run) error
}

var workloads = map[string]workload{
	"pipe_compute":     inprocWorkload(pipeCompute),
	"pipe_gpipe_rc":    inprocWorkload(pipeGPipeRC()),
	"hybrid_allreduce": inprocWorkload(hybridAllreduce),
	"session_tcp":      {endToEnd: sessionTCPEndToEnd, layers: sessionTCPLayers},
	"session_recover":  {endToEnd: recoverEndToEnd, layers: recoverLayers},
	"plan_zoo":         {endToEnd: planZooEndToEnd, layers: planZooLayers},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// stepper is what the timed loop drives: one training step per call, on the
// step's batch, returning the committed loss.
type stepper interface {
	step(k int) (float64, error)
	close() error
}

// inprocStepper drives a train.Executor in this process.
type inprocStepper struct {
	fx    *fixture
	ex    *train.Executor
	last  *train.ExecResult
	stash int64
}

func openInproc(fx *fixture, noTrace bool) (*inprocStepper, error) {
	ex, err := fx.newExecutor(noTrace)
	if err != nil {
		return nil, err
	}
	return &inprocStepper{fx: fx, ex: ex}, nil
}

func (s *inprocStepper) step(k int) (float64, error) {
	res, err := execStep(s.ex, s.fx.batch(k))
	if err != nil {
		return 0, err
	}
	s.last, s.stash = res, max(s.stash, peakStash(res))
	return res.Loss, nil
}

func (s *inprocStepper) close() error { return nil }

// warmUp runs the warm-up steps and returns their losses.
func warmUp(st stepper) ([]float64, error) {
	warm := make([]float64, 0, warmups)
	for k := 0; k < warmups; k++ {
		loss, err := st.step(k)
		if err != nil {
			return nil, fmt.Errorf("warm-up step %d: %w", k, err)
		}
		warm = append(warm, loss)
	}
	return warm, nil
}

// openWarm is openInproc followed by the warm-up steps.
func openWarm(fx *fixture, noTrace bool) (*inprocStepper, []float64, error) {
	st, err := openInproc(fx, noTrace)
	if err != nil {
		return nil, nil, err
	}
	warm, err := warmUp(st)
	return st, warm, err
}

// sessionStepper drives a real loopback session.
type sessionStepper struct {
	fx *fixture
	*session
}

func (s *sessionStepper) step(k int) (float64, error) { return s.session.step(s.fx.batch(k)) }

// setUp measures set-up: everything before the first timed operation —
// building the fixture from the seed, open (executors, or socket mesh and
// handshake) and the warm-up steps. It sets up `reps` times, closes all but
// the last, and returns that one with the median set-up seconds and the
// warm-up losses of the kept set-up.
func setUp(s shape, seed int64, reps int, open func(*fixture) (stepper, error)) (fx *fixture, st stepper, warm []float64, setupS float64, err error) {
	var times []float64
	for rep := 0; rep < reps; rep++ {
		t0 := time.Now()
		if fx, err = s.build(seed); err != nil {
			return nil, nil, nil, 0, err
		}
		if st, err = open(fx); err != nil {
			return nil, nil, nil, 0, err
		}
		if warm, err = warmUp(st); err != nil {
			st.close()
			return nil, nil, nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		if rep < reps-1 {
			if err := st.close(); err != nil {
				return nil, nil, nil, 0, fmt.Errorf("closing set-up %d: %w", rep, err)
			}
		}
	}
	return fx, st, warm, median(times), nil
}

// checkWarmups is the loss gate: the warm-up steps are the first steps from
// the initial weights, so their losses must equal sequential training's.
// Each compared step is one attempted operation.
func (r *run) checkWarmups(fx *fixture, warm []float64) (drift float64, err error) {
	want, err := fx.sequentialLosses(len(warm))
	if err != nil {
		return 0, err
	}
	for k := range warm {
		d := math.Abs(warm[k] - want[k])
		drift = max(drift, d)
		var bad error
		if !(d <= lossTol) {
			bad = fmt.Errorf("%s step %d: loss %.12f, sequential %.12f (drift %.3g > %g)", fx.name, k, warm[k], want[k], d, lossTol)
		}
		r.op(bad)
	}
	return drift, nil
}

// timedSteps drives st closed-loop for the run's seconds (and at least
// minimum steps), starting at step `first`. It stops at the first failure.
func (r *run) timedSteps(st stepper, first, minimum int, budget float64) (stepS []float64, wall float64) {
	start := time.Now()
	for k := first; len(stepS) < minimum || time.Since(start).Seconds() < budget; k++ {
		t0 := time.Now()
		loss, err := st.step(k)
		d := time.Since(t0).Seconds()
		if err == nil && (math.IsNaN(loss) || math.IsInf(loss, 0)) {
			err = fmt.Errorf("step %d: loss %v", k, loss)
		}
		if !r.op(err) {
			break
		}
		stepS = append(stepS, d)
	}
	return stepS, time.Since(start).Seconds()
}

// planOwn reports plan_s and planned_iter_s on a training workload: a cold
// Engine.Plan (fresh engine, empty cache, default options) of the workload's
// own profiled network — the same operation plan_zoo sweeps over the model
// zoo — and the predicted iteration time of the plan it chooses. The network
// is planned onto config-B(16), plan_zoo's flat cluster, not onto the four
// devices it trains on here: that search is over in a millisecond, too short
// to time. A sample is the mean of a batch of ownPlanBatch cold plans, plan_s
// the median of ownPlanBatches samples after one discarded batch. The
// planner is deterministic, so every call must return the same plan.
func (r *run) planOwn(fx *fixture) error {
	var times []float64
	var first []byte
	var latency float64
	runtime.GC() // start every run's planning phase from the same heap state
	for batch := 0; batch <= ownPlanBatches; batch++ {
		t0 := time.Now()
		for i := 0; i < ownPlanBatch; i++ {
			pr, _, err := coldPlan(fx.plan.Model, dapple.ConfigB(ownPlanGPUs))
			if !r.op(err) {
				return nil
			}
			if first == nil {
				if first, err = pr.Plan.MarshalJSON(); err != nil {
					return err
				}
				latency = pr.Latency
			} else if i == 0 {
				js, err := pr.Plan.MarshalJSON()
				if err != nil {
					return err
				}
				if !bytes.Equal(js, first) || pr.Latency != latency {
					r.op(fmt.Errorf("%s: planning batch %d chose a different plan", fx.name, batch))
				}
			}
		}
		if batch > 0 {
			times = append(times, time.Since(t0).Seconds()/ownPlanBatch)
		}
	}
	r.set("plan_s", median(times), len(times))
	r.set("planned_iter_s", latency, 0)
	return nil
}

// coldPlan times one Engine.Plan on a fresh engine under the deadline.
func coldPlan(m *dapple.Model, c dapple.Cluster) (*dapple.PlanResult, float64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), opDeadline)
	defer cancel()
	eng, err := dapple.NewEngine(dapple.WithCluster(c))
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	pr, err := eng.Plan(ctx, m)
	return pr, time.Since(t0).Seconds(), err
}

// trainMetrics sets the end-to-end metrics every training workload shares.
func (r *run) trainMetrics(fx *fixture, stepS []float64, committed int, wall float64, stash int64, setupS float64, setups int) {
	r.set("samples_per_s", float64(committed*fx.samplesPerStep())/wall, committed)
	r.set("step_ms_p50", ms(median(stepS)), len(stepS))
	r.set("peak_stash_bytes", float64(stash), 0)
	r.set("setup_s", setupS, setups)
}

// inprocWorkload is pipe_compute, pipe_gpipe_rc and hybrid_allreduce: the
// shape's hand plan on an in-process train.Executor.
func inprocWorkload(s shape) workload {
	return workload{
		endToEnd: func(r *run) error {
			fx, st, warm, setupS, err := setUp(s, r.seed, setupReps, func(fx *fixture) (stepper, error) {
				return openInproc(fx, true)
			})
			if err != nil {
				return err
			}
			stepS, wall := r.timedSteps(st, warmups, minSteps, r.seconds)
			if _, err := r.checkWarmups(fx, warm); err != nil {
				return err
			}
			r.trainMetrics(fx, stepS, len(stepS), wall, st.(*inprocStepper).stash, setupS, setupReps)
			return r.planOwn(fx)
		},
		layers: func(r *run) error {
			fx, err := s.build(r.seed)
			if err != nil {
				return err
			}
			_, err = r.trainLayers(fx, r.ownSeconds())
			return err
		},
	}
}

// twinStash runs one step of the fixture's plan on an in-process executor
// and returns its peak stash: a session's workers do not report theirs, and
// the stash is a property of plan and schedule, not of the transport.
func twinStash(fx *fixture) (int64, error) {
	st, err := openInproc(fx, true)
	if err != nil {
		return 0, err
	}
	_, err = st.step(0)
	return st.stash, err
}

func openSessionTCP(fx *fixture) (stepper, error) {
	s, err := openSession(fx, fx.net.Clone(), -1)
	if err != nil {
		return nil, err
	}
	return &sessionStepper{fx, s}, nil
}

func sessionTCPEndToEnd(r *run) error {
	fx, st, warm, setupS, err := setUp(sessionTCP, r.seed, setupReps, openSessionTCP)
	if err != nil {
		return err
	}
	stepS, wall := r.timedSteps(st, warmups, minSteps, r.seconds)
	r.op(st.close())
	if _, err := r.checkWarmups(fx, warm); err != nil {
		return err
	}
	stash, err := twinStash(fx)
	if err != nil {
		return err
	}
	r.trainMetrics(fx, stepS, len(stepS), wall, stash, setupS, setupReps)
	return r.planOwn(fx)
}

// cycle is one session_recover cycle's measurements.
type cycle struct {
	stepS      []float64 // committed steps only
	recoverS   float64   // the Step call that returned *Recovered
	handshakeS float64
	closeS     float64
	losses     []float64
}

// recoverCycle runs one churn cycle: fresh mesh and handshake, dieAtStep
// steps, rank 1's death, re-plan onto rank 0, the remaining steps, Close.
// Every protocol operation is one attempted op; the cycle's own gates —
// exactly one *Recovered, Lost == [1], Resume == dieAtStep — are one more.
func (r *run) recoverCycle(fx *fixture, op int) (cy cycle, ok bool) {
	dir, err := os.MkdirTemp(r.outDir, "ckpt-")
	if err != nil {
		r.op(err)
		return cy, false
	}
	defer os.RemoveAll(dir)

	root := r.tr.begin("dist.recover_cycle", op, -1)
	defer func() { r.tr.end(root) }()
	id := r.tr.begin("dist.NewCoordinator", op, root)
	s, err := openSession(fx, fx.net.Clone(), dieAtStep,
		train.WithCheckpoint(dir, 1), train.WithReplan(survivorPlan(fx)),
		train.WithHeartbeat(20*time.Millisecond, 200*time.Millisecond))
	r.tr.end(id)
	if !r.op(err) {
		return cy, false
	}
	cy.handshakeS = s.handshakeS
	cy.losses = make([]float64, cycleSteps)
	recoveries := 0
	var gate error
	for k := 0; k < cycleSteps; {
		id := r.tr.begin("dist.Coordinator.Step", op, root)
		t0 := time.Now()
		loss, err := s.step(fx.batch(k))
		d := time.Since(t0).Seconds()
		r.tr.end(id)
		var rec *train.Recovered
		switch {
		case err == nil:
			r.op(nil)
			cy.stepS, cy.losses[k] = append(cy.stepS, d), loss
			k++
		case errors.As(err, &rec):
			r.op(nil)
			r.tr.rename(id, "dist.Coordinator.Step(recover)")
			recoveries++
			cy.recoverS = d
			if !reflect.DeepEqual(rec.Lost, []int{1}) || rec.Resume != dieAtStep || k != dieAtStep {
				gate = fmt.Errorf("step %d: recovery lost %v and resumes at %d, want [1] and %d", k, rec.Lost, rec.Resume, dieAtStep)
			}
		default:
			r.op(fmt.Errorf("cycle step %d: %w", k, err))
			s.abandon()
			return cy, false
		}
		if recoveries > 1 || gate != nil {
			break
		}
	}
	id = r.tr.begin("dist.Coordinator.Close", op, root)
	t0 := time.Now()
	err = s.close()
	cy.closeS = time.Since(t0).Seconds()
	r.tr.end(id)
	r.op(err)
	if gate == nil && recoveries != 1 {
		gate = fmt.Errorf("cycle saw %d recoveries, want exactly 1", recoveries)
	}
	return cy, r.op(gate) && err == nil
}

// checkCycle compares every committed step's loss, including the re-run
// ones, with uninterrupted sequential training.
func (r *run) checkCycle(cy cycle, want []float64) {
	var err error
	if d := lossDrift(cy.losses, want); !(d <= lossTol) || len(cy.losses) != len(want) {
		err = fmt.Errorf("session_recover cycle: loss drift %.3g > %g", d, lossTol)
	}
	r.op(err)
}

func recoverEndToEnd(r *run) error {
	// Set-up: the fixture plus one whole discarded cycle, which warms the
	// loopback stack, the checkpoint directory and the allocator.
	var fx *fixture
	var times []float64
	for rep := 0; rep < setupReps; rep++ {
		t0 := time.Now()
		var err error
		if fx, err = sessionRecover.build(r.seed); err != nil {
			return err
		}
		if _, ok := r.recoverCycle(fx, -1); !ok {
			return errors.New("session_recover: warm-up cycle failed")
		}
		times = append(times, time.Since(t0).Seconds())
	}
	want, err := fx.sequentialLosses(cycleSteps)
	if err != nil {
		return err
	}
	var stepS []float64
	committed := 0
	start := time.Now()
	for n := 0; n < minCycles || time.Since(start).Seconds() < r.seconds; n++ {
		cy, ok := r.recoverCycle(fx, n)
		if !ok {
			break
		}
		r.checkCycle(cy, want)
		stepS = append(stepS, cy.stepS...)
		committed += cycleSteps
	}
	wall := time.Since(start).Seconds()
	stash, err := twinStash(fx)
	if err != nil {
		return err
	}
	r.trainMetrics(fx, stepS, committed, wall, stash, median(times), setupReps)
	return r.planOwn(fx)
}

// pair is one (model, cluster) planning problem of plan_zoo.
type pair struct {
	model   *dapple.Model
	cluster dapple.Cluster
}

func (p pair) String() string {
	return fmt.Sprintf("%s on %s(%d)", p.model.Name, p.cluster.Name, p.cluster.Servers)
}

// zooPairs is the zoo crossed with a hierarchical and a flat cluster, in
// canonical order.
func zooPairs() []pair {
	var out []pair
	for _, m := range dapple.Zoo() {
		for _, c := range []dapple.Cluster{dapple.ConfigA(2), dapple.ConfigB(16)} {
			out = append(out, pair{m, c})
		}
	}
	return out
}

// planned is one pair's outcome in one round.
type planned struct {
	res     *dapple.PlanResult
	json    []byte
	seconds float64
}

// planRound plans every pair once, each on a fresh engine (cold cache), in
// the given order; the result is indexed canonically.
func (r *run) planRound(pairs []pair, order []int, op int) ([]planned, float64, bool) {
	out := make([]planned, len(pairs))
	root := r.tr.begin("engine.plan_round", op, -1)
	defer func() { r.tr.end(root) }()
	t0 := time.Now()
	for _, i := range order {
		id := r.tr.begin("planner.Engine.Plan "+pairs[i].String(), op, root)
		pr, dt, err := coldPlan(pairs[i].model, pairs[i].cluster)
		r.tr.end(id)
		if !r.op(err) {
			return nil, 0, false
		}
		js, err := pr.Plan.MarshalJSON()
		if err != nil {
			r.op(err)
			return nil, 0, false
		}
		out[i] = planned{pr, js, dt}
	}
	return out, time.Since(t0).Seconds(), true
}

// checkRound is plan_zoo's gate: every plan byte-identical to the reference
// round's, and the predicted iteration time identical to the digit.
func (r *run) checkRound(pairs []pair, got, ref []planned) {
	for i := range pairs {
		var err error
		if !bytes.Equal(got[i].json, ref[i].json) || got[i].res.Latency != ref[i].res.Latency {
			err = fmt.Errorf("plan_zoo: %v planned differently across rounds", pairs[i])
		}
		r.op(err)
	}
}

// plannedIterS sums the chosen plans' predicted iteration times in canonical
// order, so the sum does not depend on the seed's pair order.
func plannedIterS(round []planned) float64 {
	var sum float64
	for _, p := range round {
		sum += p.res.Latency
	}
	return sum
}

func planZooEndToEnd(r *run) error {
	// Set-up: zoo, clusters, the seed's pair order and one discarded round.
	var pairs []pair
	var order []int
	var ref []planned
	var times []float64
	for rep := 0; rep < planSetupReps; rep++ {
		t0 := time.Now()
		pairs = zooPairs()
		order = rand.New(rand.NewSource(r.seed)).Perm(len(pairs))
		var ok bool
		if ref, _, ok = r.planRound(pairs, order, -1); !ok {
			return errors.New("plan_zoo: warm-up round failed")
		}
		times = append(times, time.Since(t0).Seconds())
	}
	var roundS []float64
	calls := 0
	start := time.Now()
	for n := 0; n < minRounds || time.Since(start).Seconds() < r.seconds; n++ {
		got, dt, ok := r.planRound(pairs, order, n)
		if !ok {
			break
		}
		r.checkRound(pairs, got, ref)
		roundS = append(roundS, dt)
		calls += len(pairs)
	}
	wall := time.Since(start).Seconds()

	// plan_zoo trains nothing. Its operation is the Engine.Plan call and its
	// step is a round, so throughput is plan calls per second and the step
	// time is the round time; the memory it reports is what the planner
	// signs the devices up for: the largest simulated per-device peak of any
	// chosen plan.
	var peak int64
	for i, p := range ref {
		ctx, cancel := context.WithTimeout(context.Background(), opDeadline)
		eng, err := dapple.NewEngine(dapple.WithCluster(pairs[i].cluster))
		if err == nil {
			var sr *dapple.ScheduleResult
			if sr, err = eng.SimulatePlan(ctx, p.res); err == nil {
				peak = max(peak, sr.MaxPeakMem)
			}
		}
		cancel()
		if !r.op(err) {
			return nil
		}
	}
	r.set("samples_per_s", float64(calls)/wall, calls)
	r.set("step_ms_p50", ms(median(roundS)), len(roundS))
	r.set("peak_stash_bytes", float64(peak), 0)
	r.set("plan_s", median(roundS), len(roundS))
	r.set("planned_iter_s", plannedIterS(ref), 0)
	r.set("setup_s", median(times), planSetupReps)
	return nil
}
