package train

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"dapple/internal/core"
	"dapple/internal/hardware"
	"dapple/internal/nn"
	"dapple/internal/schedule"
	"dapple/internal/tensor"
	"dapple/internal/transport"
)

// tinyPlan is the smallest session a hand-driven protocol test needs: a
// three-layer MLP (8 -> 10 -> 4) as one stage on one device, micro-batches
// of 4 rows, two per step.
func tinyPlan(t *testing.T) (*core.Plan, *nn.Network) {
	t.Helper()
	master := nn.MLP([]int{8, 10, 4}, 5) // dense, relu, dense
	mod, err := ProfileNetwork("tiny-net", master, 8, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	cl := hardware.ConfigA(1)
	cl.GPUsPerServer = 1
	p := &core.Plan{
		Model: mod, Cluster: cl,
		Stages: []core.Stage{{Lo: 0, Hi: 3, Devices: []hardware.DeviceID{0}}},
		GBS:    8, MicroBatch: 4,
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p, master
}

// sequentialLosses is the uninterrupted reference for a session test: the
// per-step losses of plain sequential training of a clone of master with the
// momentum optimizer the session tests use.
func sequentialLosses(t *testing.T, master *nn.Network, iters [][]Batch) []float64 {
	t.Helper()
	net, opt := master.Clone(), nn.NewMomentum(0.05, 0.9)
	want := make([]float64, len(iters))
	for k, micros := range iters {
		var err error
		if want[k], err = SequentialStep(net, micros, opt); err != nil {
			t.Fatal(err)
		}
	}
	return want
}

// soloSession starts a one-worker survivable session on loopback TCP for a
// test that drives the protocol by hand: worker rank 0 serving in the
// background, the coordinator as rank 1, re-planning onto rank 0 alone.
// Serve's result lands on exited, and a worker that stops serving cancels
// ctx, so the test fails at once instead of at its deadline.
func soloSession(t *testing.T, ctx context.Context, cancel context.CancelFunc, p *core.Plan, master *nn.Network) (coord *Coordinator, wt, ct *transport.TCP, exited chan error) {
	t.Helper()
	wt, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	wt.SetRank(0)
	ct = transport.NewTCP()
	ct.SetRank(1)
	t.Cleanup(func() { wt.Close(); ct.Close() })
	if err := ct.Dial(ctx, 0, wt.Addr()); err != nil {
		t.Fatal(err)
	}
	exited = make(chan error, 1)
	go func() {
		err := NewWorker(wt, 0).Serve(context.Background())
		cancel()
		exited <- err
	}()
	coord, err = NewCoordinator(ctx, ct, p, master, OptSpec{Kind: "momentum", LR: 0.05, Beta: 0.9},
		ExecOptions{Policy: schedule.DapplePA}, []int{0}, 1,
		WithReplan(func(alive []int) (*core.Plan, []int, error) {
			if !reflect.DeepEqual(alive, []int{0}) {
				return nil, nil, fmt.Errorf("unexpected survivors %v", alive)
			}
			return p, []int{0}, nil
		}))
	if err != nil {
		t.Fatal(err)
	}
	return coord, wt, ct, exited
}

// TestTornStepYieldsToRebuild tears a step while its micro-batches are in
// flight: the worker has the step announcement and the first micro-batch
// when the coordinator moves to a new generation. The reconfig envelope
// arrives in place of micro-batch 1's tensors; the worker must abandon the
// step and rebuild from the state broadcast behind the reconfig — and
// training then continues on the uninterrupted trajectory.
func TestTornStepYieldsToRebuild(t *testing.T) {
	p, master := tinyPlan(t)
	iters := [][]Batch{makeMicros(2, 4, 8, 4, 44), makeMicros(2, 4, 8, 4, 45)}
	want := sequentialLosses(t, master, iters)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	coord, _, ct, exited := soloSession(t, ctx, cancel, p, master)
	got := make([]float64, len(iters))
	var err error
	if got[0], err = coord.Step(ctx, iters[0]); err != nil {
		t.Fatal(err)
	}

	// Step 1, torn after its first micro-batch.
	if err := sendEnvelope(ct, 0, envelope{Kind: ctrlStep, Step: 1, M: 2}); err != nil {
		t.Fatal(err)
	}
	if err := ct.SendTensor(0, tensX, 0, iters[1][0].X, nil); err != nil {
		t.Fatal(err)
	}
	if err := ct.SendTensor(0, tensY, 0, tensor.New(len(iters[1][0].Y), 1), nil); err != nil {
		t.Fatal(err)
	}
	end := coord.rebuild()
	coord.gen++
	coord.t.Retire(coord.floor())
	err = coord.handshake(ctx, ctrlReconfig)
	end()
	if err != nil {
		t.Fatalf("rebuild after a torn step: %v", err)
	}
	if got[1], err = coord.Step(ctx, iters[1]); err != nil {
		t.Fatal(err)
	}
	for k := range iters {
		if drift := math.Abs(got[k] - want[k]); drift > 1e-6 {
			t.Fatalf("step %d: loss %.12f vs uninterrupted %.12f (drift %.3g)", k, got[k], want[k], drift)
		}
	}
	if err := coord.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-exited; err != nil {
		t.Fatalf("worker: %v", err)
	}
}

// TestShutdownAckBarrierTimesOut wedges a worker that completes the
// handshake and then stops processing control messages entirely — the
// hung-worker shape — and checks Close returns within the configured
// shutdown timeout instead of blocking on the ack barrier forever.
func TestShutdownAckBarrierTimesOut(t *testing.T) {
	p, master := tinyPlan(t)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	wt, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	wt.SetRank(0)
	ct := transport.NewTCP()
	ct.SetRank(1)
	t.Cleanup(func() { wt.Close(); ct.Close() })
	if err := ct.Dial(ctx, 0, wt.Addr()); err != nil {
		t.Fatal(err)
	}

	// The mute worker: a hand-rolled rank that runs the handshake honestly
	// and then never reads another control message.
	nparams := len(master.Params())
	mute := NewWorker(wt, 0)
	muted := make(chan error, 1)
	go func() {
		muted <- func() error {
			if env, _, err := mute.recv(ctx, 0); err != nil {
				return err
			} else if env.Kind != ctrlManifest {
				return fmt.Errorf("expected manifest, got %q", env.Kind)
			}
			for i := 0; i < nparams; i++ {
				if _, _, err := mute.recv(ctx, 0); err != nil {
					return err
				}
			}
			if env, _, err := mute.recv(ctx, 0); err != nil {
				return err
			} else if env.Kind != ctrlWeightsDone {
				return fmt.Errorf("expected weights-done, got %q", env.Kind)
			}
			return sendEnvelope(wt, 1, envelope{Kind: ctrlReady})
		}()
	}()

	coord, err := NewCoordinator(ctx, ct, p, master, OptSpec{Kind: "sgd", LR: 0.05},
		ExecOptions{Policy: schedule.DapplePA}, []int{0}, 1,
		WithShutdownTimeout(300*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if err := <-muted; err != nil {
		t.Fatalf("mute worker handshake: %v", err)
	}

	start := time.Now()
	if err := coord.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("Close took %v; the ack barrier did not time out", elapsed)
	} else if elapsed < 200*time.Millisecond {
		t.Fatalf("Close returned in %v without waiting for the ack barrier", elapsed)
	}
}

// TestSessionSurvivesWorkerDeath is the tentpole's end-to-end recovery test:
// a two-worker session (momentum optimizer, so real optimizer state is at
// stake) loses worker 1 to a scripted death at step 2; the coordinator must
// detect it, re-plan the pipeline onto the survivor, restore the last
// consistent checkpoint from disk and resume — and every completed step's
// loss, including the re-run ones, must match an uninterrupted sequential
// run to float tolerance.
func TestSessionSurvivesWorkerDeath(t *testing.T) {
	p, master, deviceRanks, b0, b1, b2 := distFixture(t)
	rng := rand.New(rand.NewSource(9))
	proj := NewQuadrantProblem(rng, 16)
	b3 := QuadrantBatches(rng, proj, 4, 8)
	iters := [][]Batch{b0, b1, b2, b3}

	// Uninterrupted reference: plain sequential training on a clone.
	refNet := master.Clone()
	refOpt := nn.NewMomentum(0.05, 0.9)
	want := make([]float64, len(iters))
	for k, micros := range iters {
		loss, err := SequentialStep(refNet, micros, refOpt)
		if err != nil {
			t.Fatal(err)
		}
		want[k] = loss
	}

	// Survivor re-plan: the 2-server pipeline collapses onto rank 0's two
	// devices as a plain 2-stage pipeline (no replication left to run).
	replans := 0
	replan := func(alive []int) (*core.Plan, []int, error) {
		replans++
		if len(alive) != 1 || alive[0] != 0 {
			return nil, nil, fmt.Errorf("unexpected survivors %v", alive)
		}
		cl := hardware.ConfigA(1)
		cl.GPUsPerServer = 2
		p2 := &core.Plan{
			Model: p.Model, Cluster: cl,
			Stages: []core.Stage{
				{Lo: 0, Hi: 3, Devices: []hardware.DeviceID{0}},
				{Lo: 3, Hi: 7, Devices: []hardware.DeviceID{1}},
			},
			GBS: p.GBS, MicroBatch: p.MicroBatch,
		}
		if err := p2.Validate(); err != nil {
			return nil, nil, err
		}
		return p2, []int{0, 0}, nil
	}

	w0t, w1t, ct := sessionMesh(t)
	w0, w1 := NewWorker(w0t, 0), NewWorker(w1t, 1)
	w1.SetDieAtStep(2)
	served0, served1 := make(chan error, 1), make(chan error, 1)
	go func() { served0 <- w0.Serve(context.Background()) }()
	go func() { served1 <- w1.Serve(context.Background()) }()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	dir := t.TempDir()
	coord, err := NewCoordinator(ctx, ct, p, master, OptSpec{Kind: "momentum", LR: 0.05, Beta: 0.9},
		ExecOptions{Policy: schedule.DapplePA}, deviceRanks, 2,
		WithReplan(replan),
		WithCheckpoint(dir, 1),
		WithHeartbeat(20*time.Millisecond, 2*time.Second),
		WithStepTimeout(20*time.Second),
		WithShutdownTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}

	got := make([]float64, len(iters))
	recoveries := 0
	for k := 0; k < len(iters); {
		loss, err := coord.Step(ctx, iters[k])
		if err != nil {
			var rec *Recovered
			if !errors.As(err, &rec) {
				t.Fatalf("step %d: %v", k, err)
			}
			recoveries++
			if recoveries > 1 {
				t.Fatalf("session recovered %d times for one death", recoveries)
			}
			if !reflect.DeepEqual(rec.Lost, []int{1}) {
				t.Fatalf("recovery lost ranks %v, want [1]", rec.Lost)
			}
			if rec.Resume != 2 {
				t.Fatalf("recovery resumes at step %d, want 2 (checkpoint every step)", rec.Resume)
			}
			k = rec.Resume
			continue
		}
		got[k] = loss
		k++
	}
	if recoveries != 1 {
		t.Fatalf("recoveries = %d, want 1", recoveries)
	}
	if replans != 1 {
		t.Fatalf("replan called %d times, want 1", replans)
	}
	for k := range iters {
		if drift := math.Abs(got[k] - want[k]); drift > 1e-6 {
			t.Fatalf("step %d: loss %.12f vs uninterrupted %.12f (drift %.3g)", k, got[k], want[k], drift)
		}
	}

	// The dead worker exited cleanly (scripted death, not a crash of the
	// test harness), and the survivor is still serving.
	select {
	case err := <-served1:
		if err != nil {
			t.Fatalf("dead worker exited with %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("dead worker never exited")
	}

	// The session's final state must match the uninterrupted run: the last
	// gathered checkpoint against the sequential reference.
	refParams := refNet.Params()
	if len(coord.ckpt.Weights) != len(refParams) {
		t.Fatalf("final checkpoint has %d params, want %d", len(coord.ckpt.Weights), len(refParams))
	}
	if coord.ckpt.Step != len(iters) {
		t.Fatalf("final checkpoint at step %d, want %d", coord.ckpt.Step, len(iters))
	}
	for i, w := range coord.ckpt.Weights {
		for j := range w.Data {
			if drift := math.Abs(w.Data[j] - refParams[i].W.Data[j]); drift > 1e-6 {
				t.Fatalf("final weight %d[%d] drifts %.3g from uninterrupted run", i, j, drift)
			}
		}
	}

	if err := coord.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-served0:
		if err != nil {
			t.Fatalf("surviving worker: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("surviving worker never shut down")
	}
}

// TestSessionResumesFromCheckpointDir starts a session, trains, closes it,
// then starts a brand-new session pointed at the same checkpoint directory
// and checks it picks up exactly where the first left off — the
// crash-and-restart restore path, compared against one uninterrupted run.
// Snapshots are written in the background, so each life's Close must leave
// its newest one, the last committed step's, on disk.
func TestSessionResumesFromCheckpointDir(t *testing.T) {
	p, master, deviceRanks, b0, b1, b2 := distFixture(t)
	iters := [][]Batch{b0, b1, b2}

	refNet := master.Clone()
	refOpt := nn.NewMomentum(0.05, 0.9)
	want := make([]float64, len(iters))
	for k, micros := range iters {
		loss, err := SequentialStep(refNet, micros, refOpt)
		if err != nil {
			t.Fatal(err)
		}
		want[k] = loss
	}

	dir := t.TempDir()
	spec := OptSpec{Kind: "momentum", LR: 0.05, Beta: 0.9}
	runSession := func(masterIn *nn.Network, from, to int) {
		t.Helper()
		w0t, w1t, ct := sessionMesh(t)
		workers := []*Worker{NewWorker(w0t, 0), NewWorker(w1t, 1)}
		served := make(chan error, len(workers))
		for _, w := range workers {
			go func(w *Worker) { served <- w.Serve(context.Background()) }(w)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		coord, err := NewCoordinator(ctx, ct, p, masterIn, spec,
			ExecOptions{Policy: schedule.DapplePA}, deviceRanks, len(workers),
			WithCheckpoint(dir, 1))
		if err != nil {
			t.Fatal(err)
		}
		for k := from; k < to; k++ {
			loss, err := coord.Step(ctx, iters[k])
			if err != nil {
				t.Fatalf("step %d: %v", k, err)
			}
			if drift := math.Abs(loss - want[k]); drift > 1e-6 {
				t.Fatalf("step %d: loss %.12f vs uninterrupted %.12f (drift %.3g)", k, loss, want[k], drift)
			}
		}
		if err := coord.Close(); err != nil {
			t.Fatal(err)
		}
		if saved, path, err := LatestCheckpoint(dir); err != nil || saved == nil || saved.Step != to {
			t.Fatalf("after Close at step %d the newest checkpoint is %q (err %v), want step %d's", to, path, err, to)
		}
		for range workers {
			if err := <-served; err != nil {
				t.Fatalf("worker: %v", err)
			}
		}
	}

	// First life: steps 0 and 1, checkpointing every step.
	runSession(master, 0, 2)
	// Second life: a fresh mesh and fresh master weights — everything must
	// come from the checkpoint directory, including momentum's velocity.
	runSession(master.Clone(), 2, 3)
}

// TestRebuildBudgetShrinksAroundSilentRank checks the reconfig budget: a
// rank that completes the handshake and then goes silent — connected, so
// no connection error ever fires, and a transport that still heartbeats
// would keep it looking alive — must not strand the rebuild's ready barrier. The
// barrier gives up after peerWaitTimeout, declares the silent rank down,
// and the ordinary shrink path then re-plans onto the survivor.
func TestRebuildBudgetShrinksAroundSilentRank(t *testing.T) {
	defer func(d time.Duration) { peerWaitTimeout = d }(peerWaitTimeout)
	peerWaitTimeout = 300 * time.Millisecond

	p, master := tinyPlan(t)
	w0t, w1t, ct := sessionMesh(t)

	// Rank 1 hosts no device. It runs the handshake honestly, then never
	// answers again.
	nparams := len(master.Params())
	mute := NewWorker(w1t, 1)
	muted := make(chan error, 1)
	go func() {
		muted <- func() error {
			if _, _, err := mute.recv(context.Background(), 0); err != nil {
				return err
			}
			for i := 0; i < nparams; i++ {
				if _, _, err := mute.recv(context.Background(), 0); err != nil {
					return err
				}
			}
			if _, _, err := mute.recv(context.Background(), 0); err != nil {
				return err
			}
			return sendEnvelope(w1t, 2, envelope{Kind: ctrlReady})
		}()
	}()
	served := make(chan error, 1)
	go func() { served <- NewWorker(w0t, 0).Serve(context.Background()) }()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	coord, err := NewCoordinator(ctx, ct, p, master, OptSpec{Kind: "sgd", LR: 0.05},
		ExecOptions{Policy: schedule.DapplePA}, []int{0}, 2,
		WithReplan(func(alive []int) (*core.Plan, []int, error) {
			if !reflect.DeepEqual(alive, []int{0}) {
				return nil, nil, fmt.Errorf("unexpected survivors %v", alive)
			}
			return p, []int{0}, nil
		}))
	if err != nil {
		t.Fatal(err)
	}
	if err := <-muted; err != nil {
		t.Fatalf("mute worker handshake: %v", err)
	}

	// A rebuild onto the same membership: rank 0 rebuilds and reports
	// ready, rank 1 stays silent.
	end := coord.rebuild()
	coord.gen++
	coord.t.Retire(coord.floor())
	start := time.Now()
	err = coord.handshake(ctx, ctrlReconfig)
	end()
	if err == nil {
		t.Fatal("a rebuild with a silent rank succeeded")
	}
	if elapsed := time.Since(start); elapsed < peerWaitTimeout || elapsed > 10*time.Second {
		t.Fatalf("rebuild gave up after %v, want the %v budget", elapsed, peerWaitTimeout)
	}
	if ct.DownErr(1) == nil {
		t.Fatalf("silent rank 1 not declared down when the budget ran out (%v)", err)
	}
	lost, err := coord.recover(ctx, err)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	if !reflect.DeepEqual(lost, []int{1}) || !reflect.DeepEqual(coord.Alive(), []int{0}) {
		t.Fatalf("recovery lost %v leaving %v, want lost [1] leaving [0]", lost, coord.Alive())
	}
	if _, err := coord.Step(ctx, makeMicros(2, 4, 8, 4, 43)); err != nil {
		t.Fatal(err)
	}
	if err := coord.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-served; err != nil {
		t.Fatalf("worker 0: %v", err)
	}
}

// TestCheckpointWriteFailureIsNeverLost replaces the checkpoint directory
// with a regular file mid-session, so the background writes that follow
// fail. The failure must come back: from the Step whose commit joins the
// failed write, or from Close, which joins the last one — and Close must
// report it even after a Step already has. A survivable session must end
// on it too, not recover around it: no rank died.
func TestCheckpointWriteFailureIsNeverLost(t *testing.T) {
	p, master, deviceRanks, b0, b1, b2 := distFixture(t)
	iters := [][]Batch{b0, b1, b2, b0}
	for _, tc := range []struct {
		name       string
		survivable bool
		viaStep    bool // another Step joins the failed write before Close
	}{
		{"fail-stop/close", false, false},
		{"fail-stop/step", false, true},
		{"survivable/close", true, false},
		{"survivable/step", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w0t, w1t, ct := sessionMesh(t)
			served := make(chan error, 2)
			for _, w := range []*Worker{NewWorker(w0t, 0), NewWorker(w1t, 1)} {
				go func(w *Worker) { served <- w.Serve(context.Background()) }(w)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			dir := filepath.Join(t.TempDir(), "ckpt")
			opts := []SessionOption{WithCheckpoint(dir, 1)}
			if tc.survivable {
				opts = append(opts, WithReplan(func(alive []int) (*core.Plan, []int, error) {
					return nil, nil, fmt.Errorf("no rank should die, yet the session re-plans onto %v", alive)
				}))
			}
			coord, err := NewCoordinator(ctx, ct, p, master.Clone(), OptSpec{Kind: "momentum", LR: 0.05, Beta: 0.9},
				ExecOptions{Policy: schedule.DapplePA}, deviceRanks, 2, opts...)
			if err != nil {
				t.Fatal(err)
			}
			for k := 0; k < 2; k++ {
				if _, err := coord.Step(ctx, iters[k]); err != nil {
					t.Fatalf("step %d: %v", k, err)
				}
			}
			// Land step 2's snapshot first, so nothing recreates the
			// directory once it is gone.
			if err := coord.settle(); err != nil {
				t.Fatal(err)
			}
			if err := os.RemoveAll(dir); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(dir, []byte("not a directory"), 0o644); err != nil {
				t.Fatal(err)
			}
			// Step 2 commits; its snapshot's write fails in the background.
			if _, err := coord.Step(ctx, iters[2]); err != nil {
				t.Fatalf("step 2: %v", err)
			}
			if tc.viaStep {
				_, err := coord.Step(ctx, iters[3])
				var rec *Recovered
				if err == nil || errors.As(err, &rec) || !strings.Contains(err.Error(), "checkpoint write") {
					t.Fatalf("step 3 after a failed checkpoint write: %v, want that failure", err)
				}
			}
			if err := coord.Close(); err == nil || !strings.Contains(err.Error(), "checkpoint write") {
				t.Fatalf("Close after a failed checkpoint write returned %v", err)
			}
			for range 2 {
				<-served // a failed session aborts its workers; only their exit matters
			}
		})
	}
}

// emptyRank hand-drives rank 1 of a tinyPlan session, a rank hosting no
// device: it runs the handshake, answers every step with a step-done and
// every snapshot request with an empty share's snap-ack. Before each ack it
// calls atSnapshot with the step just done, which may stall; the rank stops
// there when atSnapshot returns false or an error.
func emptyRank(ctx context.Context, wt *transport.TCP, atSnapshot func(step int) (bool, error)) error {
	peer := NewWorker(wt, 1)
	for {
		env, tm, err := peer.recv(ctx, 0)
		if err != nil {
			return err
		}
		wt.RecycleTensor(tm.Tensor)
		if env.Kind == ctrlWeightsDone {
			break
		}
	}
	if err := sendEnvelope(wt, 2, envelope{Kind: ctrlReady}); err != nil {
		return err
	}
	for step := 0; ; step++ {
		env, _, err := peer.recv(ctx, 0)
		if err != nil {
			return err
		}
		if env.Kind == ctrlShutdown {
			return sendEnvelope(wt, 2, envelope{Kind: ctrlShutdownAck})
		}
		if env.Kind != ctrlStep || env.Step != step {
			return fmt.Errorf("step %d: got %q for step %d", step, env.Kind, env.Step)
		}
		for i := 0; i < 2*env.M; i++ {
			_, tm, err := peer.recv(ctx, 0)
			if err != nil {
				return err
			}
			if tm.Tensor == nil {
				return fmt.Errorf("step %d: envelope in place of micro-batch tensor %d", step, i)
			}
			wt.RecycleTensor(tm.Tensor)
		}
		if err := sendEnvelope(wt, 2, envelope{Kind: ctrlStepDone, Step: step}); err != nil {
			return err
		}
		if env, _, err = peer.recv(ctx, 0); err != nil {
			return err
		}
		if env.Kind != ctrlSnapshot {
			return fmt.Errorf("after step %d: got %q, want the snapshot request", step, env.Kind)
		}
		if ack, err := atSnapshot(step); !ack || err != nil {
			return err
		}
		if err := sendEnvelope(wt, 2, envelope{Kind: ctrlSnapAck}); err != nil {
			return err
		}
	}
}

// TestTornSnapshotRollsBack tears the snapshot at the end of a step: rank
// 1, a hand-driven peer hosting no device, answers step 1 with its
// step-done, then dies on the snapshot request before its snap-ack. The
// step must not commit — rank 0 has applied it, but the snapshot is
// incomplete — so Step returns *Recovered at the previous snapshot's step,
// whose background write recovery joins first, and the trajectory that
// follows on rank 0 alone is sequential training's.
func TestTornSnapshotRollsBack(t *testing.T) {
	p, master := tinyPlan(t)
	iters := [][]Batch{makeMicros(2, 4, 8, 4, 51), makeMicros(2, 4, 8, 4, 52), makeMicros(2, 4, 8, 4, 53)}
	want := sequentialLosses(t, master, iters)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	w0t, w1t, ct := sessionMesh(t)

	// Rank 1 runs the handshake honestly, answers step 0 with a step-done
	// and an empty share's snap-ack, and dies between the two on step 1.
	torn := make(chan error, 1)
	go func() {
		torn <- emptyRank(ctx, w1t, func(step int) (bool, error) {
			if step == 1 {
				return false, w1t.Close()
			}
			return true, nil
		})
	}()
	served := make(chan error, 1)
	go func() { served <- NewWorker(w0t, 0).Serve(context.Background()) }()

	dir := t.TempDir()
	coord, err := NewCoordinator(ctx, ct, p, master, OptSpec{Kind: "momentum", LR: 0.05, Beta: 0.9},
		ExecOptions{Policy: schedule.DapplePA}, []int{0}, 2,
		WithCheckpoint(dir, 1),
		WithReplan(func(alive []int) (*core.Plan, []int, error) {
			if !reflect.DeepEqual(alive, []int{0}) {
				return nil, nil, fmt.Errorf("unexpected survivors %v", alive)
			}
			return p, []int{0}, nil
		}))
	if err != nil {
		t.Fatal(err)
	}
	got := make([]float64, len(iters))
	if got[0], err = coord.Step(ctx, iters[0]); err != nil {
		t.Fatal(err)
	}
	_, err = coord.Step(ctx, iters[1])
	var rec *Recovered
	if !errors.As(err, &rec) || rec.Resume != 1 || !reflect.DeepEqual(rec.Lost, []int{1}) {
		t.Fatalf("step 1 with a torn snapshot: %v, want *Recovered losing [1] and resuming at 1", err)
	}
	if err := <-torn; err != nil {
		t.Fatalf("hand-driven rank 1: %v", err)
	}
	if coord.ckpt.Step != 1 {
		t.Fatalf("the torn step committed: snapshot at step %d, want 1", coord.ckpt.Step)
	}
	for k := rec.Resume; k < len(iters); k++ {
		if got[k], err = coord.Step(ctx, iters[k]); err != nil {
			t.Fatalf("step %d: %v", k, err)
		}
	}
	for k := range iters {
		if drift := math.Abs(got[k] - want[k]); drift > 1e-6 {
			t.Fatalf("step %d: loss %.12f vs uninterrupted %.12f (drift %.3g)", k, got[k], want[k], drift)
		}
	}
	if err := coord.Close(); err != nil {
		t.Fatal(err)
	}
	if saved, _, err := LatestCheckpoint(dir); err != nil || saved == nil || saved.Step != len(iters) {
		t.Fatalf("newest checkpoint after Close: %v (err %v), want step %d", saved, err, len(iters))
	}
	if err := <-served; err != nil {
		t.Fatalf("worker 0: %v", err)
	}
}

// TestSlowSnapshotOutlastsStepTimeout stalls a rank's snapshot share well
// past a short step timeout. The step timeout bounds only the step's own
// report; the snapshot that follows waits for every share however long it
// takes, so the session neither declares the rank dead nor recovers.
func TestSlowSnapshotOutlastsStepTimeout(t *testing.T) {
	const stepTimeout = 100 * time.Millisecond
	p, master := tinyPlan(t)
	iters := [][]Batch{makeMicros(2, 4, 8, 4, 61), makeMicros(2, 4, 8, 4, 62)}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	w0t, w1t, ct := sessionMesh(t)
	slow := make(chan error, 1)
	go func() {
		slow <- emptyRank(ctx, w1t, func(int) (bool, error) {
			time.Sleep(3 * stepTimeout)
			return true, nil
		})
	}()
	served := make(chan error, 1)
	go func() { served <- NewWorker(w0t, 0).Serve(context.Background()) }()

	coord, err := NewCoordinator(ctx, ct, p, master, OptSpec{Kind: "momentum", LR: 0.05, Beta: 0.9},
		ExecOptions{Policy: schedule.DapplePA}, []int{0}, 2,
		WithCheckpoint(t.TempDir(), 1), WithStepTimeout(stepTimeout),
		WithReplan(func(alive []int) (*core.Plan, []int, error) {
			return nil, nil, fmt.Errorf("no rank died, yet the session re-plans onto %v", alive)
		}))
	if err != nil {
		t.Fatal(err)
	}
	for k, micros := range iters {
		if _, err := coord.Step(ctx, micros); err != nil {
			t.Fatalf("step %d with a slow snapshot share: %v", k, err)
		}
	}
	if coord.ckpt.Step != len(iters) {
		t.Fatalf("snapshot at step %d, want %d", coord.ckpt.Step, len(iters))
	}
	if err := coord.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-slow; err != nil {
		t.Fatalf("hand-driven rank 1: %v", err)
	}
	if err := <-served; err != nil {
		t.Fatalf("worker 0: %v", err)
	}
}
