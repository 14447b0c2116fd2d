package train

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"dapple/internal/core"
	"dapple/internal/hardware"
	"dapple/internal/nn"
	"dapple/internal/schedule"
	"dapple/internal/transport"
)

// elasticMesh wires the 2-workers + listening-coordinator loopback mesh an
// elastic session needs: like sessionMesh, but the coordinator listens too
// (joiners knock on it) and the workers' listen addresses are returned so
// the session can hand them to joiners.
func elasticMesh(t *testing.T) (w0, w1, coord *transport.TCP, addrs map[int]string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	var err error
	if w0, err = transport.ListenTCP("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if w1, err = transport.ListenTCP("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if coord, err = transport.ListenTCP("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	w0.SetRank(0)
	w1.SetRank(1)
	coord.SetRank(2)
	t.Cleanup(func() { w0.Close(); w1.Close(); coord.Close() })
	if err := w1.Dial(ctx, 0, w0.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := coord.Dial(ctx, 0, w0.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := coord.Dial(ctx, 1, w1.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := w0.WaitPeers(ctx, []int{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := w1.WaitPeers(ctx, []int{0, 2}); err != nil {
		t.Fatal(err)
	}
	return w0, w1, coord, map[int]string{0: w0.Addr(), 1: w1.Addr()}
}

// elasticReplan builds the ReplanFunc both elastic tests share: any two
// ranks get the fixture's original two-server placement mapped onto them
// (so a session that lost rank 1 and gained rank 3 re-expands to the exact
// original pipeline shape); the lone rank 0 gets the collapsed two-stage
// pipeline; three ranks get the original plan with the last stage placed on
// the extra rank.
func elasticReplan(t *testing.T, p *core.Plan) ReplanFunc {
	return func(alive []int) (*core.Plan, []int, error) {
		switch len(alive) {
		case 2:
			return p, []int{alive[0], alive[0], alive[1], alive[1]}, nil
		case 3:
			return p, []int{alive[0], alive[0], alive[1], alive[2]}, nil
		case 1:
			if alive[0] != 0 {
				return nil, nil, fmt.Errorf("unexpected lone survivor %v", alive)
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
		default:
			return nil, nil, fmt.Errorf("unexpected membership %v", alive)
		}
	}
}

// TestSessionWorkerRejoin is the tentpole's end-to-end test: a two-worker
// elastic session loses worker 1 to a scripted death at step 2 and shrinks
// onto rank 0; a replacement process then joins through the membership
// handshake, is granted the fresh rank 3, receives the running session's
// state through the same broadcast as the survivor, and the session
// re-expands to two ranks — exactly one shrink and one expand recovery,
// every completed step's loss matching an uninterrupted sequential run to
// 1e-6, and the final weights matching too. It runs once per stateful
// optimizer: Adam's step counter rides on weights-done and snap-ack through
// the broadcast, the gather and the join, so a lost count shows as drift.
func TestSessionWorkerRejoin(t *testing.T) {
	for _, opt := range []OptSpec{
		{Kind: "momentum", LR: 0.05, Beta: 0.9},
		{Kind: "adam", LR: 0.01},
	} {
		t.Run(opt.Kind, func(t *testing.T) { sessionWorkerRejoin(t, opt) })
	}
}

func sessionWorkerRejoin(t *testing.T, opt OptSpec) {
	p, master, deviceRanks, b0, b1, b2 := distFixture(t)
	rng := rand.New(rand.NewSource(29))
	proj := NewQuadrantProblem(rng, 16)
	iters := [][]Batch{b0, b1, b2,
		QuadrantBatches(rng, proj, 4, 8),
		QuadrantBatches(rng, proj, 4, 8),
		QuadrantBatches(rng, proj, 4, 8)}

	// Uninterrupted reference: plain sequential training on a clone.
	refNet := master.Clone()
	factory, err := opt.Factory()
	if err != nil {
		t.Fatal(err)
	}
	refOpt := factory()
	want := make([]float64, len(iters))
	for k, micros := range iters {
		loss, err := SequentialStep(refNet, micros, refOpt)
		if err != nil {
			t.Fatal(err)
		}
		want[k] = loss
	}

	w0t, w1t, ct, addrs := elasticMesh(t)
	w0, w1 := NewWorker(w0t, 0), NewWorker(w1t, 1)
	w1.SetDieAtStep(2)
	served0, served1 := make(chan error, 1), make(chan error, 1)
	go func() { served0 <- w0.Serve(context.Background()) }()
	go func() { served1 <- w1.Serve(context.Background()) }()

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	coord, err := NewCoordinator(ctx, ct, p, master, opt,
		ExecOptions{Policy: schedule.DapplePA}, deviceRanks, 2,
		WithReplan(elasticReplan(t, p)),
		WithElastic(addrs),
		WithCheckpoint(t.TempDir(), 1),
		WithHeartbeat(20*time.Millisecond, 2*time.Second),
		WithStepTimeout(30*time.Second),
		WithShutdownTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}

	got := make([]float64, len(iters))
	shrinks, expands := 0, 0
	k := 0
	for k < 3 {
		loss, err := coord.Step(ctx, iters[k])
		if err != nil {
			var rec *Recovered
			if !errors.As(err, &rec) {
				t.Fatalf("step %d: %v", k, err)
			}
			shrinks++
			if shrinks > 1 {
				t.Fatalf("session shrank %d times for one death", shrinks)
			}
			if !reflect.DeepEqual(rec.Lost, []int{1}) || len(rec.Joined) != 0 {
				t.Fatalf("shrink recovery lost %v joined %v, want lost [1]", rec.Lost, rec.Joined)
			}
			if rec.Resume != 2 {
				t.Fatalf("shrink resumes at step %d, want 2 (checkpoint every step)", rec.Resume)
			}
			k = rec.Resume
			continue
		}
		got[k] = loss
		k++
	}
	if !reflect.DeepEqual(coord.Alive(), []int{0}) {
		t.Fatalf("post-shrink membership %v, want [0]", coord.Alive())
	}

	// The replacement: a fresh listening transport dials the coordinator,
	// runs the membership handshake and parks for admission. JoinSession
	// blocks until the coordinator services the knock, so it runs beside
	// AwaitJoin.
	jt, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { jt.Close() })
	type joinResult struct {
		w   *Worker
		err error
	}
	joined := make(chan joinResult, 1)
	go func() {
		w, err := JoinSession(ctx, jt, ct.Addr())
		joined <- joinResult{w, err}
	}()
	if err := coord.AwaitJoin(ctx); err != nil {
		t.Fatalf("await join: %v", err)
	}
	jr := <-joined
	if jr.err != nil {
		t.Fatalf("join session: %v", jr.err)
	}
	if jr.w.rank != 3 {
		t.Fatalf("joiner granted rank %d, want the fresh rank 3 (dead rank 1 must not be reused)", jr.w.rank)
	}
	servedJ := make(chan error, 1)
	go func() { servedJ <- jr.w.Serve(context.Background()) }()

	for k < len(iters) {
		loss, err := coord.Step(ctx, iters[k])
		if err != nil {
			var rec *Recovered
			if !errors.As(err, &rec) {
				t.Fatalf("step %d: %v", k, err)
			}
			expands++
			if expands > 1 {
				t.Fatalf("session expanded %d times for one join", expands)
			}
			if rec.Cause != nil || len(rec.Lost) != 0 || !reflect.DeepEqual(rec.Joined, []int{3}) {
				t.Fatalf("expand recovery lost %v joined %v cause %v, want a pure join of [3]", rec.Lost, rec.Joined, rec.Cause)
			}
			if rec.Resume != 3 {
				t.Fatalf("expand resumes at step %d, want 3 (the interrupted step)", rec.Resume)
			}
			k = rec.Resume
			continue
		}
		got[k] = loss
		k++
	}
	if shrinks != 1 || expands != 1 {
		t.Fatalf("shrinks=%d expands=%d, want exactly one of each", shrinks, expands)
	}
	if !reflect.DeepEqual(coord.Alive(), []int{0, 3}) {
		t.Fatalf("post-expand membership %v, want [0 3]", coord.Alive())
	}
	for k := range iters {
		if drift := math.Abs(got[k] - want[k]); drift > 1e-6 {
			t.Fatalf("step %d: loss %.12f vs uninterrupted %.12f (drift %.3g)", k, got[k], want[k], drift)
		}
	}

	// The final session state must match the uninterrupted run, proving the
	// broadcast delivered real training state, not just workable weights.
	refParams := refNet.Params()
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
	for name, ch := range map[string]chan error{"survivor": served0, "dead": served1, "joiner": servedJ} {
		select {
		case err := <-ch:
			if err != nil {
				t.Fatalf("%s worker exited with %v", name, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s worker never exited", name)
		}
	}
}

// TestSessionRejoinJoinerDiesMidSync is the chaos composition: a joiner is
// granted membership and then dies during its state sync (right after the
// admission reconfig reaches it). Whichever side of the admission race the
// death lands on, the session must stay consistent: either the corpse is
// pruned before expansion and the step just runs, or the expansion is
// attempted, fails, and the session shrinks back to the original two ranks
// with bit-exact pre-step state — and in every outcome the losses keep
// matching the uninterrupted sequential run.
func TestSessionRejoinJoinerDiesMidSync(t *testing.T) {
	p, master, deviceRanks, b0, b1, b2 := distFixture(t)
	rng := rand.New(rand.NewSource(31))
	proj := NewQuadrantProblem(rng, 16)
	iters := [][]Batch{b0, b1, b2, QuadrantBatches(rng, proj, 4, 8)}

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

	w0t, w1t, ct, addrs := elasticMesh(t)
	w0, w1 := NewWorker(w0t, 0), NewWorker(w1t, 1)
	served := make(chan error, 2)
	go func() { served <- w0.Serve(context.Background()) }()
	go func() { served <- w1.Serve(context.Background()) }()

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	coord, err := NewCoordinator(ctx, ct, p, master, OptSpec{Kind: "momentum", LR: 0.05, Beta: 0.9},
		ExecOptions{Policy: schedule.DapplePA}, deviceRanks, 2,
		WithReplan(elasticReplan(t, p)),
		WithElastic(addrs),
		WithCheckpoint(t.TempDir(), 1),
		WithHeartbeat(20*time.Millisecond, 2*time.Second),
		WithStepTimeout(30*time.Second),
		WithShutdownTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}

	got := make([]float64, len(iters))
	for k := 0; k < 2; k++ {
		loss, err := coord.Step(ctx, iters[k])
		if err != nil {
			t.Fatalf("step %d: %v", k, err)
		}
		got[k] = loss
	}

	// The doomed joiner: it completes the membership handshake honestly,
	// waits for its admission reconfig, and dies on the spot — mid-sync,
	// before consuming the state broadcast.
	jt, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { jt.Close() })
	doomed := make(chan error, 1)
	go func() {
		doomed <- func() error {
			w, err := JoinSession(ctx, jt, ct.Addr())
			if err != nil {
				return err
			}
			if _, _, err := w.recv(ctx, 0); err != nil {
				return err
			}
			jt.Close()
			return nil
		}()
	}()
	if err := coord.AwaitJoin(ctx); err != nil {
		t.Fatalf("await join: %v", err)
	}

	// Pre-step state, bitwise (checkpointed every step, so this is the
	// step-2 boundary): a failed expansion must leave it untouched. The
	// doomed goroutine is still parked here — its admission reconfig is
	// only sent inside Step, so it dies mid-admission below.
	pre := EncodeCheckpoint(coord.ckpt)

	for k := 2; k < len(iters); {
		loss, err := coord.Step(ctx, iters[k])
		if err != nil {
			var rec *Recovered
			if !errors.As(err, &rec) {
				t.Fatalf("step %d: %v", k, err)
			}
			// The expansion raced the death and lost: the session must have
			// shrunk back to exactly the original membership with the
			// pre-step state intact.
			if rec.Cause == nil {
				t.Fatalf("expansion onto a dead joiner reported success: joined %v", rec.Joined)
			}
			if len(rec.Joined) != 0 {
				t.Fatalf("dead joiner %v reported as session member", rec.Joined)
			}
			if !reflect.DeepEqual(coord.Alive(), []int{0, 1}) {
				t.Fatalf("post-rollback membership %v, want [0 1]", coord.Alive())
			}
			if rec.Resume != 2 {
				t.Fatalf("rollback resumes at step %d, want 2", rec.Resume)
			}
			if !bytes.Equal(EncodeCheckpoint(coord.ckpt), pre) {
				t.Fatal("failed expansion mutated the session's training state")
			}
			k = rec.Resume
			continue
		}
		got[k] = loss
		k++
	}
	select {
	case err := <-doomed:
		if err != nil {
			t.Fatalf("doomed joiner: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("doomed joiner never received its admission reconfig")
	}
	for k := range iters {
		if drift := math.Abs(got[k] - want[k]); drift > 1e-6 {
			t.Fatalf("step %d: loss %.12f vs uninterrupted %.12f (drift %.3g)", k, got[k], want[k], drift)
		}
	}
	if err := coord.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		select {
		case err := <-served:
			if err != nil {
				t.Fatalf("worker exited with %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("worker never exited")
		}
	}
}

// TestSessionRecoversFromTornExpansionRound replays, without sleeps, the
// chain behind the rejoin hang: a veteran bails out of an expansion round
// on death evidence (the joiner it should mesh with is already down), and
// the round's remaining frames — the state broadcast and its weights-done —
// then reach a worker that never built that round. They carry the torn
// round's epoch, so the worker must drop them and rebuild from the recovery
// round that follows; the session must recover and train on.
func TestSessionRecoversFromTornExpansionRound(t *testing.T) {
	p, master := tinyPlan(t)
	iters := [][]Batch{makeMicros(2, 4, 8, 4, 41), makeMicros(2, 4, 8, 4, 42)}
	want := sequentialLosses(t, master, iters)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	coord, wt, ct, exited := soloSession(t, ctx, cancel, p, master)
	jt, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	jt.SetRank(2)
	t.Cleanup(func() { jt.Close() })
	got := make([]float64, len(iters))
	if got[0], err = coord.Step(ctx, iters[0]); err != nil {
		t.Fatal(err)
	}

	// The joiner meshes with both ranks and dies; both see it down (a
	// transport downs only the dead peer).
	if err := jt.Dial(ctx, 0, wt.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := ct.Dial(ctx, 2, jt.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := wt.WaitPeers(ctx, []int{2}); err != nil {
		t.Fatal(err)
	}
	if err := jt.WaitPeers(ctx, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	jt.Close()
	for _, tr := range []*transport.TCP{wt, ct} {
		for {
			downs, downWait := tr.PeerDowns()
			if slices.Contains(downs, 2) {
				break
			}
			select {
			case <-downWait:
			case <-ctx.Done():
				t.Fatal("the joiner's death was never seen")
			}
		}
	}

	// The torn expansion round: a new generation naming the dead joiner.
	// The veteran's mesh wait fails on the evidence, it reports it, and the
	// round's state broadcast and weights-done are left in flight to it.
	coord.gen++
	coord.t.Retire(coord.floor())
	coord.alive = []int{0, 2}
	if err := coord.handshake(ctx, ctrlReconfig); err == nil {
		t.Fatal("an expansion round onto a dead joiner succeeded")
	}
	lost, err := coord.recover(ctx, errors.New("joiner died mid-sync"))
	if err != nil {
		select {
		case werr := <-exited:
			t.Fatalf("recovery: %v; worker exited: %v", err, werr)
		default:
			t.Fatalf("recovery: %v", err)
		}
	}
	if !reflect.DeepEqual(lost, []int{2}) {
		t.Fatalf("recovery lost %v, want [2]", lost)
	}
	if coord.CompletedSteps() != 1 {
		t.Fatalf("recovery resumes at step %d, want 1", coord.CompletedSteps())
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
