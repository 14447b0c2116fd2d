package train

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"dapple/internal/core"
	"dapple/internal/hardware"
	"dapple/internal/nn"
	"dapple/internal/schedule"
	"dapple/internal/tensor"
	"dapple/internal/transport"
)

// goldenSteps is the trajectory length every golden row trains.
const goldenSteps = 25

// goldenRun is one row's pinned outcome on one kernel: the FNV-64a hash of
// every step's loss bits followed by every hosted parameter bit after the
// last step, for steady-state socket rows the frames and bytes the step loop
// sends, summed over all transports and divided by goldenSteps, and for
// churn rows the *Recovered records their Steps returned, in order.
type goldenRun struct {
	hash          uint64
	frames, bytes float64
	recovered     string
}

// goldenTrajectories pins each row per tensor.KernelName() and GOARCH. The
// GEMM kernel flavour changes rounding (fused or separate multiply-add), so
// each flavour has its own hashes; a combination without a recorded entry
// skips rather than guesses.
var goldenTrajectories = map[string]map[string]goldenRun{
	"ring": {
		"avx2-muladd/amd64": {hash: 0x1a7c123ed3932cda},
		"avx2-fma/amd64":    {hash: 0xd8120e799d331766},
	},
	"hierarchical": {
		"avx2-muladd/amd64": {hash: 0xed5f2d128fe8beb3},
		"avx2-fma/amd64":    {hash: 0xf56d933c2e857adb},
	},
	"session-tcp": {
		"avx2-muladd/amd64": {hash: 0xa673a5765961a79b, frames: 38, bytes: 32104.88},
		"avx2-fma/amd64":    {hash: 0x807f1af942bbd774, frames: 38, bytes: 32104.84},
	},
	"chaos-delay": {
		"avx2-muladd/amd64": {hash: 0x3bb5f706c9e8bc3c, frames: 18, bytes: 22536},
		"avx2-fma/amd64":    {hash: 0x0bb1eedff523d1ca, frames: 18, bytes: 22536},
	},
	// The chaos-delay arithmetic on the in-memory mesh: the same hashes.
	"mesh": {
		"avx2-muladd/amd64": {hash: 0x3bb5f706c9e8bc3c},
		"avx2-fma/amd64":    {hash: 0x0bb1eedff523d1ca},
	},
	"churn-shrink": {
		"avx2-muladd/amd64": {hash: 0xb765b213dd8deb36, recovered: "lost [1] joined [] resume 2"},
		"avx2-fma/amd64":    {hash: 0xbb0b0c286925b9f6, recovered: "lost [1] joined [] resume 2"},
	},
	"churn-rejoin": {
		"avx2-muladd/amd64": {hash: 0xd779fe77af7464d8, recovered: "lost [1] joined [] resume 2; lost [] joined [3] resume 3"},
		"avx2-fma/amd64":    {hash: 0x6ae7ecf8bc3c2de0, recovered: "lost [1] joined [] resume 2; lost [] joined [3] resume 3"},
	},
	// Whichever side of the admission race the joiner's death lands on, the
	// trajectory is the one the session trains without it: session-tcp's.
	"churn-rollback": {
		"avx2-muladd/amd64": {hash: 0xa673a5765961a79b},
		"avx2-fma/amd64":    {hash: 0x807f1af942bbd774},
	},
}

// TestGoldenTrajectories is the runtime's exactness proof: each row trains
// 25 steps and every loss and parameter bit is hashed against a recorded
// value. The rows cover the in-process ring all-reduce, the in-process
// hierarchical all-reduce, a coordinator session over TCP whose stage-1
// replica group crosses worker processes, the same cross-process exchange
// driven through delay-only chaos, and that exchange again between two ranks
// of an in-memory mesh. The steady-state socket rows also pin their per-step
// traffic, which is deterministic without a heartbeat. The churn rows run
// the TCP session through recovery: worker 1 dies and the session shrinks
// onto the survivor; the same death followed by a fresh worker's join and
// the expansion onto it; and a joiner that dies during its admission, which
// the session either prunes or rolls back from. The first two also pin the
// *Recovered records; none pins traffic, since what is in flight at a tear
// depends on timing. A transport or runtime change that claims no float
// moved must pass this unchanged.
func TestGoldenTrajectories(t *testing.T) {
	key := tensor.KernelName() + "/" + runtime.GOARCH
	rows := []struct {
		name string
		run  func(t *testing.T) goldenRun
	}{
		{"ring", func(t *testing.T) goldenRun {
			master := nn.MLP([]int{16, 24, 24, 24, 8}, 7)
			return goldenInproc(t, master, mkPlan(t, master, 16, 8, 4, []int{3, 7}, []int{2, 2}), "ring")
		}},
		{"hierarchical", func(t *testing.T) goldenRun {
			p, master, _, _, _, _ := distFixture(t)
			p.Cluster = hardware.ConfigA(2)
			p.Stages = []core.Stage{
				{Lo: 0, Hi: 3, Devices: []hardware.DeviceID{0}},
				{Lo: 3, Hi: 7, Devices: []hardware.DeviceID{1, 2, 8, 9}},
			}
			if err := p.Validate(); err != nil {
				t.Fatal(err)
			}
			return goldenInproc(t, master, p, "hierarchical")
		}},
		{"session-tcp", func(t *testing.T) goldenRun {
			return goldenTraffic(goldenSession(t, 0), goldenSession(t, goldenSteps))
		}},
		{"chaos-delay", func(t *testing.T) goldenRun {
			return goldenTraffic(goldenChaos(t, 0), goldenChaos(t, goldenSteps))
		}},
		{"mesh", func(t *testing.T) goldenRun {
			ts := transport.NewInprocMesh(2)
			ex0, ex1 := distPair(t, [2]transport.Transport{ts[0], ts[1]})
			g := newGoldenHasher()
			goldenPairSteps(t, g, ex0, ex1, goldenSteps)
			g.params(ex0)
			g.params(ex1)
			return goldenRun{hash: g.h.Sum64()}
		}},
		{"churn-shrink", goldenShrink},
		{"churn-rejoin", goldenRejoin},
		{"churn-rollback", goldenRollback},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			want, ok := goldenTrajectories[row.name][key]
			if !ok {
				t.Skipf("no golden trajectory recorded for kernel %s", key)
			}
			if got := row.run(t); got != want {
				t.Fatalf("kernel %s: got {hash: %#016x, frames: %v, bytes: %v, recovered: %q}, want {hash: %#016x, frames: %v, bytes: %v, recovered: %q}",
					key, got.hash, got.frames, got.bytes, got.recovered, want.hash, want.frames, want.bytes, want.recovered)
			}
		})
	}
}

// goldenHasher folds float64 bits into an FNV-64a hash.
type goldenHasher struct {
	h hash.Hash64
	b [8]byte
}

func newGoldenHasher() *goldenHasher { return &goldenHasher{h: fnv.New64a()} }

func (g *goldenHasher) f64(v float64) {
	binary.LittleEndian.PutUint64(g.b[:], math.Float64bits(v))
	g.h.Write(g.b[:])
}

// params folds every parameter of every replica ex hosts, in stage then
// replica order.
func (g *goldenHasher) params(ex *Executor) {
	for _, st := range ex.stages {
		for _, net := range st.nets {
			if net == nil {
				continue
			}
			for _, p := range net.Params() {
				for _, v := range p.W.Data {
					g.f64(v)
				}
			}
		}
	}
}

// goldenMicros returns the micro-batches of step k: distFixture's three
// iterations, cycled.
func goldenMicros(t *testing.T) func(k int) []Batch {
	_, _, _, b0, b1, b2 := distFixture(t)
	iters := [][]Batch{b0, b1, b2}
	return func(k int) []Batch { return iters[k%len(iters)] }
}

// goldenMomentum is the optimizer of the in-process and session rows.
var goldenMomentum = OptSpec{Kind: "momentum", LR: 0.05, Beta: 0.9}

// goldenInproc trains p in one process and checks the replicated stages
// synchronize through the all-reduce algorithm the row names.
func goldenInproc(t *testing.T, master *nn.Network, p *core.Plan, algo string) goldenRun {
	opt, err := goldenMomentum.Factory()
	if err != nil {
		t.Fatal(err)
	}
	ex, err := NewExecutor(p, master.Clone(), opt, ExecOptions{Policy: schedule.DapplePA, NoTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	for si, s := range p.Stages {
		if s.Replicas() > 1 && ex.AllReduceAlgo(si) != algo {
			t.Fatalf("stage %d all-reduce %q, want %q", si, ex.AllReduceAlgo(si), algo)
		}
	}
	micros := goldenMicros(t)
	g := newGoldenHasher()
	for k := 0; k < goldenSteps; k++ {
		res, err := ex.Step(micros(k))
		if err != nil {
			t.Fatalf("step %d: %v", k, err)
		}
		g.f64(res.Loss)
	}
	g.params(ex)
	return goldenRun{hash: g.h.Sum64()}
}

// goldenTraffic turns a run of goldenSteps steps and a run of none into the
// row's outcome: the long run's hash and the per-step share of the traffic
// the two runs differ by, which cancels the handshake and the shutdown.
func goldenTraffic(base, run goldenSocketRun) goldenRun {
	return goldenRun{
		hash:   run.hash,
		frames: float64(run.stats.FramesSent-base.stats.FramesSent) / goldenSteps,
		bytes:  float64(run.stats.BytesSent-base.stats.BytesSent) / goldenSteps,
	}
}

// goldenSocketRun is one socket row's hash and its traffic summed over all
// transports, read after every pump has stopped.
type goldenSocketRun struct {
	hash  uint64
	stats transport.Stats
}

// sumSent adds the send counters of ts, which must all be closed.
func sumSent(ts ...*transport.TCP) transport.Stats {
	var sum transport.Stats
	for _, tr := range ts {
		st := tr.Stats()
		sum.FramesSent += st.FramesSent
		sum.BytesSent += st.BytesSent
	}
	return sum
}

// goldenSession runs a 2-worker coordinator session of distFixture for
// steps steps and closes it.
func goldenSession(t *testing.T, steps int) goldenSocketRun {
	p, master, deviceRanks, _, _, _ := distFixture(t)
	micros := goldenMicros(t)
	w0t, w1t, ct := sessionMesh(t)
	workers := []*Worker{NewWorker(w0t, 0), NewWorker(w1t, 1)}
	served := make(chan error, len(workers))
	for _, w := range workers {
		go func(w *Worker) { served <- w.Serve(context.Background()) }(w)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	coord, err := NewCoordinator(ctx, ct, p, master, goldenMomentum,
		ExecOptions{Policy: schedule.DapplePA}, deviceRanks, len(workers))
	if err != nil {
		t.Fatal(err)
	}
	g := newGoldenHasher()
	for k := 0; k < steps; k++ {
		loss, err := coord.Step(ctx, micros(k))
		if err != nil {
			t.Fatalf("step %d: %v", k, err)
		}
		g.f64(loss)
	}
	if err := coord.Close(); err != nil {
		t.Fatal(err)
	}
	for range workers {
		select {
		case err := <-served:
			if err != nil {
				t.Fatalf("worker serve: %v", err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("worker never shut down")
		}
	}
	w0t.Close()
	w1t.Close()
	// Serve has returned, so the executors are safe to read here.
	for _, w := range workers {
		g.params(w.Executor())
	}
	return goldenSocketRun{hash: g.h.Sum64(), stats: sumSent(w0t, w1t, ct)}
}

// goldenChaos steps chaosDistPair's executors over loopback TCP under
// delay-only chaos for steps steps and closes both ranks.
func goldenChaos(t *testing.T, steps int) goldenSocketRun {
	tcp := loopbackPair(t)
	ex0, ex1, closeChaos := chaosDistPair(t, transport.ChaosConfig{Seed: 1, DelayProb: 0.5, MaxDelay: 300 * time.Microsecond},
		[2]transport.Transport{tcp[0], tcp[1]})
	g := newGoldenHasher()
	goldenPairSteps(t, g, ex0, ex1, steps)
	closeChaos()
	tcp[1].Close()
	g.params(ex0)
	g.params(ex1)
	return goldenSocketRun{hash: g.h.Sum64(), stats: sumSent(tcp[0], tcp[1])}
}

// goldenPairSteps steps a distPair's two ranks together for steps steps and
// folds each step's losses into g.
func goldenPairSteps(t *testing.T, g *goldenHasher, ex0, ex1 *Executor, steps int) {
	t.Helper()
	micros := goldenMicros(t)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for k := 0; k < steps; k++ {
		var wg sync.WaitGroup
		var res0, res1 *ExecResult
		var err0, err1 error
		wg.Add(2)
		go func() { defer wg.Done(); res0, err0 = ex0.StepContext(ctx, micros(k)) }()
		go func() { defer wg.Done(); res1, err1 = ex1.StepContext(ctx, micros(k)) }()
		wg.Wait()
		if err0 != nil || err1 != nil {
			t.Fatalf("step %d: err0=%v err1=%v", k, err0, err1)
		}
		g.f64(res0.Loss)
		g.f64(res1.Loss)
	}
}

// goldenChurn is a survivable, elastic 2-worker session of distFixture for
// the churn rows, run the way TestSessionWorkerRejoin runs its session:
// checkpoint every step, heartbeats on, elasticReplan re-planning.
type goldenChurn struct {
	t       *testing.T
	ctx     context.Context
	coord   *Coordinator
	ct      *transport.TCP
	workers []*Worker
	served  []chan error
	micros  func(k int) []Batch
	g       *goldenHasher
	recs    []string
	k       int // next step to run
}

// newGoldenChurn meshes and serves workers 0 and 1, rank 1 scripted to die
// at step dieAt (negative: never), and starts the coordinator.
func newGoldenChurn(t *testing.T, dieAt int) *goldenChurn {
	p, master, deviceRanks, _, _, _ := distFixture(t)
	w0t, w1t, ct, addrs := elasticMesh(t)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	t.Cleanup(cancel)
	s := &goldenChurn{t: t, ctx: ctx, ct: ct, micros: goldenMicros(t), g: newGoldenHasher()}
	w1 := NewWorker(w1t, 1)
	w1.SetDieAtStep(dieAt)
	s.serve(NewWorker(w0t, 0))
	s.serve(w1)
	var err error
	s.coord, err = NewCoordinator(ctx, ct, p, master, goldenMomentum,
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
	return s
}

// serve runs w in the background.
func (s *goldenChurn) serve(w *Worker) {
	done := make(chan error, 1)
	go func() { done <- w.Serve(context.Background()) }()
	s.workers = append(s.workers, w)
	s.served = append(s.served, done)
}

// steps runs the session until step until has completed, folding every
// completed step's loss into the hash and recording every *Recovered.
func (s *goldenChurn) steps(until int) {
	for s.k < until {
		loss, err := s.coord.Step(s.ctx, s.micros(s.k))
		var rec *Recovered
		switch {
		case errors.As(err, &rec):
			s.recs = append(s.recs, fmt.Sprintf("lost %v joined %v resume %d", rec.Lost, rec.Joined, rec.Resume))
			s.k = rec.Resume
		case err != nil:
			s.t.Fatalf("step %d: %v", s.k, err)
		default:
			s.g.f64(loss)
			s.k++
		}
	}
}

// join runs a fresh worker through the membership handshake and serves it;
// the next Step expands onto it.
func (s *goldenChurn) join() {
	jt, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		s.t.Fatal(err)
	}
	s.t.Cleanup(func() { jt.Close() })
	joined := make(chan *Worker, 1)
	go func() {
		w, err := JoinSession(s.ctx, jt, s.ct.Addr())
		if err != nil {
			s.t.Errorf("join session: %v", err)
		}
		joined <- w
	}()
	if err := s.coord.AwaitJoin(s.ctx); err != nil {
		s.t.Fatalf("await join: %v", err)
	}
	if w := <-joined; w != nil {
		s.serve(w)
	}
}

// finish closes the session and folds the parameters of the workers still
// in it, which must all have served to a clean shutdown.
func (s *goldenChurn) finish() goldenRun {
	if err := s.coord.Close(); err != nil {
		s.t.Fatal(err)
	}
	for i, w := range s.workers {
		select {
		case err := <-s.served[i]:
			if err != nil {
				s.t.Fatalf("worker %d: %v", w.Rank(), err)
			}
		case <-time.After(30 * time.Second):
			s.t.Fatalf("worker %d never shut down", w.Rank())
		}
	}
	// Serve has returned, so the executors are safe to read here.
	for _, r := range s.coord.Alive() {
		for _, w := range s.workers {
			if w.Rank() == r {
				s.g.params(w.Executor())
			}
		}
	}
	return goldenRun{hash: s.g.h.Sum64(), recovered: strings.Join(s.recs, "; ")}
}

// goldenShrink: worker 1 dies at step 2 and the session finishes on rank 0.
func goldenShrink(t *testing.T) goldenRun {
	s := newGoldenChurn(t, 2)
	s.steps(goldenSteps)
	return s.finish()
}

// goldenRejoin: worker 1 dies at step 2, the session shrinks and re-runs
// step 2 on rank 0, a fresh worker joins as rank 3, and the session expands
// onto it at step 3 and finishes.
func goldenRejoin(t *testing.T) goldenRun {
	s := newGoldenChurn(t, 2)
	s.steps(3)
	s.join()
	s.steps(goldenSteps)
	return s.finish()
}

// goldenRollback: after step 2 a joiner is granted membership and dies as
// soon as its admission reconfig reaches it. The session either prunes it
// before expanding or expands, fails and rolls back; only the hash is
// pinned, since the Recovered record depends on which.
func goldenRollback(t *testing.T) goldenRun {
	s := newGoldenChurn(t, -1)
	s.steps(2)
	jt, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { jt.Close() })
	doomed := make(chan error, 1)
	go func() {
		doomed <- func() error {
			w, err := JoinSession(s.ctx, jt, s.ct.Addr())
			if err != nil {
				return err
			}
			if _, _, err := w.recv(s.ctx, 0); err != nil {
				return err
			}
			jt.Close()
			return nil
		}()
	}()
	if err := s.coord.AwaitJoin(s.ctx); err != nil {
		t.Fatalf("await join: %v", err)
	}
	s.steps(goldenSteps)
	if err := <-doomed; err != nil {
		t.Fatalf("doomed joiner: %v", err)
	}
	run := s.finish()
	t.Logf("admission race outcome: %q", run.recovered)
	run.recovered = ""
	return run
}
