package train

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"dapple/internal/nn"
	"dapple/internal/schedule"
	"dapple/internal/tensor"
	"dapple/internal/transport"
)

// TestBucketChunkWorkerMatrixMatchesOracle pins the determinism foundation
// of communication overlap: reducing a gradient vector bucket by bucket, at
// any kernel worker count, produces a result bit-identical to one ring
// all-reduce of the whole vector, the oracle. The canonical
// rank-order accumulation makes every sub-range sum a pure function of the
// inputs, so bucket boundaries cannot perturb training results.
func TestBucketChunkWorkerMatrixMatchesOracle(t *testing.T) {
	const n = 4
	for _, workers := range []int{1, 2, 8} {
		prev := tensor.SetWorkers(workers)
		for _, size := range []int{33, 1024, 5000} {
			mk := func() [][]float64 {
				r := rand.New(rand.NewSource(int64(size)))
				bufs := make([][]float64, n)
				for i := range bufs {
					bufs[i] = make([]float64, size)
					for j := range bufs[i] {
						bufs[i][j] = r.NormFloat64()
					}
				}
				return bufs
			}
			oracle := mk()
			transport.NewRing(n, size).AllReduce(oracle) // the whole-vector oracle
			for _, bucketElems := range []int{7, 64, 1024, size} {
				bufs := mk()
				for lo := 0; lo < size; lo += bucketElems {
					hi := min(lo+bucketElems, size)
					views := make([][]float64, n)
					for i := range views {
						views[i] = bufs[i][lo:hi]
					}
					transport.NewRing(n, hi-lo).AllReduce(views)
				}
				for r := 0; r < n; r++ {
					for i := 0; i < size; i++ {
						if bufs[r][i] != oracle[r][i] {
							t.Fatalf("workers=%d size=%d bucket=%d rank %d elem %d: %g, oracle %g",
								workers, size, bucketElems, r, i, bufs[r][i], oracle[r][i])
						}
					}
				}
			}
		}
		tensor.SetWorkers(prev)
	}
}

// TestBucketedExecutorMatchesMonolithic is the executor-level property test:
// a step with backward-time bucketed gradient sync (any bucket size) leaves
// every stage replica's parameters bit-identical to the same step synced as
// one whole-stage bucket — a single post-backward collective, the oracle —
// across kernel worker counts.
func TestBucketedExecutorMatchesMonolithic(t *testing.T) {
	const oneBucket = 1 << 30
	for _, workers := range []int{1, 2, 8} {
		prev := tensor.SetWorkers(workers)
		// bucketBytes 1 forces the max bucket count; the middle values cut
		// mid-network; oneBucket checks that the oracle repeats itself.
		for _, bb := range []int{1, 2 << 10, 16 << 10, oneBucket} {
			t.Run(fmt.Sprintf("workers=%d/bucketBytes=%d", workers, bb), func(t *testing.T) {
				master := nn.MLP([]int{6, 12, 10, 3}, 2024)
				p := mkPlan(t, master, 6, 6, 6, []int{3, 5}, []int{2, 2})
				micros := makeMicros(6, 6, 6, 3, 11)
				mono := master.Clone()
				exB, err := NewExecutor(p, master, func() nn.Optimizer { return nn.SGD{LR: 0.05} },
					ExecOptions{Policy: schedule.DapplePA, bucketBytes: bb})
				if err != nil {
					t.Fatal(err)
				}
				exM, err := NewExecutor(p, mono, func() nn.Optimizer { return nn.SGD{LR: 0.05} },
					ExecOptions{Policy: schedule.DapplePA, bucketBytes: oneBucket})
				if err != nil {
					t.Fatal(err)
				}
				if n := len(exM.stages[0].ar.buckets); n != 1 {
					t.Fatalf("oracle executor cut stage 0 into %d buckets, want 1", n)
				}
				for step := 0; step < 3; step++ {
					rb, err := exB.Step(micros)
					if err != nil {
						t.Fatal(err)
					}
					rm, err := exM.Step(micros)
					if err != nil {
						t.Fatal(err)
					}
					if rb.Loss != rm.Loss {
						t.Fatalf("step %d: bucketed loss %g != one-bucket %g", step, rb.Loss, rm.Loss)
					}
					for si, s := range p.Stages {
						for r := 0; r < s.Replicas(); r++ {
							got, want := exB.StageParams(si, r), exM.StageParams(si, r)
							for i := range got {
								if d := tensor.MaxAbsDiff(got[i].W, want[i].W); d != 0 {
									t.Fatalf("step %d stage %d replica %d param %d: bucketed differs from one-bucket by %g",
										step, si, r, i, d)
								}
							}
						}
					}
				}
			})
		}
		tensor.SetWorkers(prev)
	}
}

// loopbackPair connects two listening TCP transports as ranks 0 and 1 and
// closes them when the test ends.
func loopbackPair(t *testing.T) [2]*transport.TCP {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	w0, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	w1, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	w0.SetRank(0)
	w1.SetRank(1)
	t.Cleanup(func() { w0.Close(); w1.Close() })
	if err := w1.Dial(ctx, 0, w0.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := w0.WaitPeers(ctx, []int{1}); err != nil {
		t.Fatal(err)
	}
	return [2]*transport.TCP{w0, w1}
}

// pairBackends are the two-rank meshes the distributed pair runs on: real
// loopback sockets and the in-memory mesh.
var pairBackends = []struct {
	name  string
	ranks func(t *testing.T) [2]transport.Transport
}{
	{"tcp", func(t *testing.T) [2]transport.Transport {
		ts := loopbackPair(t)
		return [2]transport.Transport{ts[0], ts[1]}
	}},
	{"mesh", func(t *testing.T) [2]transport.Transport {
		ts := transport.NewInprocMesh(2)
		t.Cleanup(func() { ts[0].Close(); ts[1].Close() })
		return [2]transport.Transport{ts[0], ts[1]}
	}},
}

// distPair builds the distFixture plan as two raw distributed executors
// training with SGD, rank r on ranks[r]. Stage 1's replica group spans the
// ranks, so its bucket collectives cross the mesh.
func distPair(t *testing.T, ranks [2]transport.Transport) (ex0, ex1 *Executor) {
	t.Helper()
	p, master, deviceRanks, _, _, _ := distFixture(t)
	mk := func(rank int) *Executor {
		ex, err := NewExecutor(p, master.Clone(), func() nn.Optimizer { return nn.SGD{LR: 0.05} },
			ExecOptions{Policy: schedule.DapplePA, NoTrace: true,
				Dist: &DistConfig{Transport: ranks[rank], Rank: rank, DeviceRanks: deviceRanks}})
		if err != nil {
			t.Fatal(err)
		}
		return ex
	}
	return mk(0), mk(1)
}

// chaosDistPair is distPair with rank 0's transport wrapped in the scripted
// chaos layer, so its edges and its bucket collectives' sum edges are
// faulted; close0 closes the wrapper.
func chaosDistPair(t *testing.T, cfg transport.ChaosConfig, ranks [2]transport.Transport) (ex0, ex1 *Executor, close0 func()) {
	t.Helper()
	ch := transport.NewChaos(ranks[0], cfg)
	ex0, ex1 = distPair(t, [2]transport.Transport{ch, ranks[1]})
	return ex0, ex1, func() { ch.Close() }
}

// snapshotParams deep-copies the parameters of every replica the executor
// hosts, keyed by stage.
func snapshotParams(p []nn.Param) []*tensor.Matrix {
	out := make([]*tensor.Matrix, len(p))
	for i, pr := range p {
		out[i] = pr.W.Clone()
	}
	return out
}

// TestBucketedChaosCommitOrCleanAbort drives the bucketed backward-time
// all-reduce through a chaos-faulted mesh — loopback TCP, and again the
// in-memory mesh with the same trials — and pins the all-or-nothing
// contract: under injected frame delays a step commits on both ranks with
// bit-identical replica-group parameters; under a scripted mid-step
// transport tear the failing rank aborts cleanly, leaving every parameter it
// hosts exactly at its pre-step value — never a partially applied bucket.
func TestBucketedChaosCommitOrCleanAbort(t *testing.T) {
	micros := makeMicros(4, 8, 16, 8, 5)
	trials := []transport.ChaosConfig{
		// Pure delay: slow links must not break commit.
		{Seed: 1, DelayProb: 0.5, MaxDelay: 300 * time.Microsecond},
		{Seed: 2, DelayProb: 0.9, MaxDelay: 100 * time.Microsecond},
		// Scripted tears at increasing send counts (a bucket collective of
		// this 2-rank group is one send): a process dying before, between
		// and after bucket collectives.
		{Seed: 3, TearAfter: 1},
		{Seed: 4, TearAfter: 3},
		{Seed: 5, TearAfter: 6, DelayProb: 0.3, MaxDelay: 100 * time.Microsecond},
	}
	for _, b := range pairBackends {
		t.Run(b.name, func(t *testing.T) {
			for trial, cfg := range trials {
				ex0, ex1, closeChaos := chaosDistPair(t, cfg, b.ranks(t))
				pre0 := [][]*tensor.Matrix{snapshotParams(ex0.StageParams(0, 0)), snapshotParams(ex0.StageParams(1, 0))}
				pre1 := [][]*tensor.Matrix{snapshotParams(ex1.StageParams(1, 1)), snapshotParams(ex1.StageParams(2, 0))}

				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				var wg sync.WaitGroup
				var err0, err1 error
				var res0, res1 *ExecResult
				wg.Add(2)
				go func() { defer wg.Done(); res0, err0 = ex0.StepContext(ctx, micros) }()
				go func() { defer wg.Done(); res1, err1 = ex1.StepContext(ctx, micros) }()
				wg.Wait()
				cancel()
				closeChaos()

				if errors.Is(err0, context.DeadlineExceeded) || errors.Is(err1, context.DeadlineExceeded) {
					t.Fatalf("trial %d: step wedged instead of aborting (err0=%v err1=%v)", trial, err0, err1)
				}
				if cfg.TearAfter == 0 {
					// Delay-only chaos: the step must commit on both ranks.
					if err0 != nil || err1 != nil {
						t.Fatalf("trial %d (delay only): err0=%v err1=%v", trial, err0, err1)
					}
					// Each rank reports the loss of the stages it hosts; only rank 1
					// holds the loss-computing last stage here.
					if total := res0.Loss + res1.Loss; total <= 0 {
						t.Fatalf("trial %d: committed step reported non-positive loss %g", trial, total)
					}
					// The span-spanning replica group (stage 1) must end bit-identical
					// across ranks.
					g0, g1 := ex0.StageParams(1, 0), ex1.StageParams(1, 1)
					for i := range g0 {
						if d := tensor.MaxAbsDiff(g0[i].W, g1[i].W); d != 0 {
							t.Fatalf("trial %d: stage 1 replicas diverged across ranks by %g", trial, d)
						}
						if d := tensor.MaxAbsDiff(g0[i].W, pre0[1][i]); d == 0 {
							t.Fatalf("trial %d: stage 1 committed step left params unchanged", trial)
						}
					}
					continue
				}
				// Torn mid-step: each rank either committed fully or aborted cleanly.
				check := func(rank int, err error, hosted [][]nn.Param, pre [][]*tensor.Matrix) {
					if err == nil {
						return // commit: covered by the session-level equivalence suites
					}
					for si := range hosted {
						for i, pr := range hosted[si] {
							if d := tensor.MaxAbsDiff(pr.W, pre[si][i]); d != 0 {
								t.Fatalf("trial %d rank %d (err=%v): aborted step moved hosted params[%d][%d] by %g — partial bucket commit",
									trial, rank, err, si, i, d)
							}
						}
					}
				}
				check(0, err0, [][]nn.Param{ex0.StageParams(0, 0), ex0.StageParams(1, 0)}, pre0)
				check(1, err1, [][]nn.Param{ex1.StageParams(1, 1), ex1.StageParams(2, 0)}, pre1)
				if err0 == nil && err1 == nil {
					t.Fatalf("trial %d: scripted tear at send %d injured neither rank", trial, cfg.TearAfter)
				}
			}
		})
	}
}
