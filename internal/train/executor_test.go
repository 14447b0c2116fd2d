package train

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"dapple/internal/core"
	"dapple/internal/hardware"
	"dapple/internal/nn"
	"dapple/internal/planner"
	"dapple/internal/schedule"
	"dapple/internal/strategy"
	"dapple/internal/tensor"
)

// mkPlan hand-builds a validated plan over the profiled net: cuts are
// exclusive layer end indices, reps per-stage replica counts, devices
// assigned sequentially from the cluster.
func mkPlan(t *testing.T, net *nn.Network, inDim, rows, m int, cuts, reps []int) *core.Plan {
	t.Helper()
	mod, err := ProfileNetwork("test-net", net, inDim, rows, rows*m)
	if err != nil {
		t.Fatal(err)
	}
	nDev := 0
	for _, r := range reps {
		nDev += r
	}
	c := hardware.ConfigB(nDev)
	stages := make([]core.Stage, len(cuts))
	lo, dev := 0, 0
	for i, hi := range cuts {
		devs := make([]hardware.DeviceID, reps[i])
		for r := range devs {
			devs[r] = hardware.DeviceID(dev)
			dev++
		}
		stages[i] = core.Stage{Lo: lo, Hi: hi, Devices: devs}
		lo = hi
	}
	p := &core.Plan{Model: mod, Cluster: c, Stages: stages, GBS: rows * m, MicroBatch: rows}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p
}

// checkAgainstSequential steps a fresh sequential clone and an executor over
// identical micro-batches and asserts losses and every stage replica's
// post-step parameters agree to tolerance.
func checkAgainstSequential(t *testing.T, master *nn.Network, p *core.Plan, micros []Batch, opts ExecOptions) *ExecResult {
	t.Helper()
	seq := master.Clone()
	seqLoss, err := SequentialStep(seq, micros, nn.SGD{LR: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	ex, err := NewExecutor(p, master, func() nn.Optimizer { return nn.SGD{LR: 0.05} }, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ex.Step(micros)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Loss-seqLoss) > 1e-9 {
		t.Fatalf("loss: sequential %g vs executed plan %g", seqLoss, res.Loss)
	}
	requireStagesMatch(t, ex, p, seq)
	return res
}

// requireStagesMatch asserts every stage replica's parameters equal the
// matching layer slice of the sequentially trained network to 1e-9.
func requireStagesMatch(t *testing.T, ex *Executor, p *core.Plan, seq *nn.Network) {
	t.Helper()
	for si, s := range p.Stages {
		want := seq.Slice(s.Lo, s.Hi).Params()
		for r := 0; r < s.Replicas(); r++ {
			got := ex.StageParams(si, r)
			if len(got) != len(want) {
				t.Fatalf("stage %d param count %d vs %d", si, len(got), len(want))
			}
			for i := range got {
				if d := tensor.MaxAbsDiff(got[i].W, want[i].W); d > 1e-9 {
					t.Fatalf("stage %d replica %d param %d differs by %g", si, r, i, d)
				}
			}
		}
	}
}

// TestExecutorMatchesSequential is the plan-driven form of the paper's §VI-A
// equivalence claim: executing a core.Plan — any cut, replication, policy and
// re-computation combination — reproduces sequential training exactly.
func TestExecutorMatchesSequential(t *testing.T) {
	cases := []struct {
		name string
		cuts []int
		reps []int
		opts ExecOptions
	}{
		{"straight-2stage-pa", []int{3, 5}, []int{1, 1}, ExecOptions{Policy: schedule.DapplePA}},
		{"straight-3stage-pa", []int{2, 4, 5}, []int{1, 1, 1}, ExecOptions{Policy: schedule.DapplePA}},
		{"straight-2stage-gpipe", []int{3, 5}, []int{1, 1}, ExecOptions{Policy: schedule.GPipe}},
		{"recompute-pa", []int{3, 5}, []int{1, 1}, ExecOptions{Policy: schedule.DapplePA, Recompute: true}},
		{"recompute-gpipe", []int{2, 5}, []int{1, 1}, ExecOptions{Policy: schedule.GPipe, Recompute: true}},
		{"replicated-first", []int{3, 5}, []int{2, 1}, ExecOptions{Policy: schedule.DapplePA}},
		{"replicated-last", []int{3, 5}, []int{1, 3}, ExecOptions{Policy: schedule.DapplePA}},
		{"unequal-boundary", []int{3, 5}, []int{3, 2}, ExecOptions{Policy: schedule.DapplePA}},
		{"hybrid-recompute", []int{2, 4, 5}, []int{2, 3, 2}, ExecOptions{Policy: schedule.DapplePB, Recompute: true}},
		{"dp-single-stage", []int{5}, []int{4}, ExecOptions{Policy: schedule.DapplePA}},
		// Stage 1 is a lone ReLU on 2 replicas: replicated but with no
		// gradients to sum, so it runs no collective.
		{"replicated-param-free", []int{1, 2, 5}, []int{1, 2, 1}, ExecOptions{Policy: schedule.DapplePA}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			master := nn.MLP([]int{6, 12, 10, 3}, 2024) // 5 layers: D,R,D,R,D
			micros := makeMicros(6, 6, 6, 3, 11)
			p := mkPlan(t, master, 6, 6, 6, tc.cuts, tc.reps)
			res := checkAgainstSequential(t, master, p, micros, tc.opts)
			if res.Trace == nil {
				t.Fatal("expected a real-execution trace")
			}
		})
	}
	master := nn.MLP([]int{6, 12, 10, 3}, 2024)
	p := mkPlan(t, master, 6, 6, 6, []int{1, 2, 5}, []int{1, 2, 1})
	ex, err := NewExecutor(p, master, func() nn.Optimizer { return nn.SGD{LR: 0.05} }, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if algo := ex.AllReduceAlgo(1); algo != "none" {
		t.Fatalf("parameter-free replicated stage synchronized by %q, want none", algo)
	}
}

// TestPlannerPlansExecute closes the planner→runtime loop for every
// strategy in the table: profile a real network, plan it on a real cluster
// topology, execute the resulting plan, and demand sequential-equivalent
// gradients.
func TestPlannerPlansExecute(t *testing.T) {
	master := nn.MLP([]int{16, 32, 24, 16, 4}, 7) // 7 layers
	const rows, m = 8, 4
	mod, err := ProfileNetwork("planner-net", master, 16, rows, rows*m)
	if err != nil {
		t.Fatal(err)
	}
	c := hardware.ConfigB(4)
	for _, s := range strategy.Table {
		t.Run(s.Name, func(t *testing.T) {
			pr, err := s.Plan(context.Background(), mod, c, planner.Options{GBS: rows * m, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			if got := pr.Plan.M(); got != m {
				t.Fatalf("plan M=%d, want %d", got, m)
			}
			micros := makeMicros(m, rows, 16, 4, 5)
			checkAgainstSequential(t, master, pr.Plan, micros, ExecOptions{
				Policy: pr.Policy, Recompute: pr.NeedsRecompute,
			})
		})
	}
}

// TestExecutorPropertyRandomPlans is the randomized form of the equivalence
// guarantee: random small networks × random valid plans (cuts, replicas,
// micro-batch counts), each run under every policy with recompute on and
// off, all match SequentialStep. It is also the stash-count oracle: every
// stage's peak stash equals its warmup depth and the simulator's for the
// same plan and options.
func TestExecutorPropertyRandomPlans(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		hidden := rng.Intn(3) + 1 // 1..3 hidden layers
		dims := []int{rng.Intn(4) + 3}
		for i := 0; i < hidden; i++ {
			dims = append(dims, rng.Intn(8)+4)
		}
		classes := rng.Intn(3) + 2
		dims = append(dims, classes)
		master := nn.MLP(dims, rng.Int63())
		layers := master.NumLayers()

		nStages := rng.Intn(min(3, layers)) + 1
		cuts := randomCuts(rng, layers, nStages)
		reps := make([]int, nStages)
		maxRep := 1
		for i := range reps {
			reps[i] = rng.Intn(3) + 1
			maxRep = max(maxRep, reps[i])
		}
		rows := maxRep + rng.Intn(5)
		m := rng.Intn(4) + 2

		mod, err := ProfileNetwork("prop-net", master, dims[0], rows, rows*m)
		if err != nil {
			return false
		}
		nDev := 0
		for _, r := range reps {
			nDev += r
		}
		c := hardware.ConfigB(nDev)
		stages := make([]core.Stage, nStages)
		lo, dev := 0, 0
		for i, hi := range cuts {
			devs := make([]hardware.DeviceID, reps[i])
			for r := range devs {
				devs[r] = hardware.DeviceID(dev)
				dev++
			}
			stages[i] = core.Stage{Lo: lo, Hi: hi, Devices: devs}
			lo = hi
		}
		p := &core.Plan{Model: mod, Cluster: c, Stages: stages, GBS: rows * m, MicroBatch: rows}
		if err := p.Validate(); err != nil {
			return false
		}

		micros := makeMicros(m, rows, dims[0], classes, seed+1)
		seq := master.Clone()
		seqLoss, err := SequentialStep(seq, micros, nn.SGD{LR: 0.1})
		if err != nil {
			return false
		}
		for _, pol := range []schedule.Policy{schedule.GPipe, schedule.DapplePA, schedule.DapplePB} {
			for _, rc := range []bool{false, true} {
				opts := ExecOptions{Policy: pol, Recompute: rc}
				ex, err := NewExecutor(p, master, func() nn.Optimizer { return nn.SGD{LR: 0.1} }, opts)
				if err != nil {
					return false
				}
				res, err := ex.StepContext(context.Background(), micros)
				if err != nil {
					return false
				}
				if math.Abs(res.Loss-seqLoss) > 1e-9 {
					return false
				}
				sim, err := schedule.Run(p, schedule.Options{Policy: pol, Recompute: rc, M: m})
				if err != nil {
					return false
				}
				for si, s := range p.Stages {
					if res.MaxStash[si] != res.Warmup[si] || res.Warmup[si] != sim.PerStage[si].Warmup {
						t.Logf("seed %d %v recompute=%v stage %d: stash %d, warmup %d, simulated warmup %d",
							seed, pol, rc, si, res.MaxStash[si], res.Warmup[si], sim.PerStage[si].Warmup)
						return false
					}
					want := seq.Slice(s.Lo, s.Hi).Params()
					for r := 0; r < s.Replicas(); r++ {
						got := ex.StageParams(si, r)
						for i := range got {
							if tensor.MaxAbsDiff(got[i].W, want[i].W) > 1e-9 {
								return false
							}
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// randomCuts draws nStages increasing exclusive end indices covering layers.
func randomCuts(rng *rand.Rand, layers, nStages int) []int {
	for {
		seen := map[int]bool{layers: true}
		for len(seen) < nStages {
			seen[rng.Intn(layers-1)+1] = true
		}
		cuts := make([]int, 0, nStages)
		for c := range seen {
			cuts = append(cuts, c)
		}
		sortInts(cuts)
		if len(cuts) == nStages {
			return cuts
		}
	}
}

// sortInts is a tiny insertion sort to avoid importing sort for one call.
func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// TestSimVsRealEventOrder is the sim-vs-real contract of the plan-driven
// runtime: for one plan and policy, every device's real event order equals
// the simulator's schedule for that device's stage — including warmup depths,
// which both sides derive from schedule.WarmupDepths.
func TestSimVsRealEventOrder(t *testing.T) {
	master := nn.MLP([]int{8, 16, 12, 8, 4}, 99) // 7 layers
	const rows, m = 6, 5
	cases := []struct {
		name string
		pol  schedule.Policy
		rc   bool
	}{
		{"gpipe", schedule.GPipe, false},
		{"dapple-pa", schedule.DapplePA, false},
		{"dapple-pb", schedule.DapplePB, false},
		{"dapple-pa-recompute", schedule.DapplePA, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := mkPlan(t, master.Clone(), 8, rows, m, []int{2, 4, 7}, []int{2, 1, 2})
			simRes, err := schedule.Run(p, schedule.Options{Policy: tc.pol, Recompute: tc.rc, M: m})
			if err != nil {
				t.Fatal(err)
			}
			ex, err := NewExecutor(p, master.Clone(), func() nn.Optimizer { return nn.SGD{LR: 0.05} },
				ExecOptions{Policy: tc.pol, Recompute: tc.rc})
			if err != nil {
				t.Fatal(err)
			}
			micros := makeMicros(m, rows, 8, 4, 3)
			res, err := ex.Step(micros)
			if err != nil {
				t.Fatal(err)
			}
			for i, st := range p.Stages {
				if simK := simRes.PerStage[i].Warmup; simK != res.Warmup[i] {
					t.Fatalf("stage %d warmup: sim %d vs real %d", i, simK, res.Warmup[i])
				}
				want := spanSequence(simRes.Sim, simRes.StageResource(i))
				if len(want) != 2*m+1 {
					t.Fatalf("stage %d sim emitted %d events, want %d", i, len(want), 2*m+1)
				}
				for _, d := range st.Devices {
					devRes := res.Trace.ResourceIndex(deviceResource(i, int(d)))
					if devRes < 0 {
						t.Fatalf("stage %d device %d missing from real trace", i, d)
					}
					got := spanSequence(res.Trace, devRes)
					if len(got) != len(want) {
						t.Fatalf("stage %d device %d: %d real events vs %d simulated\nreal: %v\nsim:  %v",
							i, d, len(got), len(want), got, want)
					}
					for j := range want {
						if got[j] != want[j] {
							t.Fatalf("stage %d device %d event %d: real %q vs sim %q\nreal: %v\nsim:  %v",
								i, d, j, got[j], want[j], got, want)
						}
					}
				}
			}
			if err := VerifyOrder(p, simRes, res); err != nil {
				t.Fatalf("VerifyOrder: %v", err)
			}
		})
	}
}

// TestVerifyOrderDetectsMismatch pits a GPipe execution against a DAPPLE
// simulation of the same plan: VerifyOrder must reject the pairing.
func TestVerifyOrderDetectsMismatch(t *testing.T) {
	master := nn.MLP([]int{8, 16, 12, 8, 4}, 99)
	const rows, m = 6, 5
	p := mkPlan(t, master.Clone(), 8, rows, m, []int{2, 4, 7}, []int{1, 1, 1})
	simRes, err := schedule.Run(p, schedule.Options{Policy: schedule.DapplePA, M: m})
	if err != nil {
		t.Fatal(err)
	}
	ex, err := NewExecutor(p, master.Clone(), func() nn.Optimizer { return nn.SGD{LR: 0.05} },
		ExecOptions{Policy: schedule.GPipe})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ex.StepContext(context.Background(), makeMicros(m, rows, 8, 4, 3))
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyOrder(p, simRes, res); err == nil {
		t.Fatal("expected order mismatch between GPipe execution and DAPPLE simulation")
	}
	if err := VerifyOrder(p, simRes, &ExecResult{}); err == nil {
		t.Fatal("expected error for a traceless result")
	}
}

// TestExecutorValidation exercises the constructor and step guard rails.
func TestExecutorValidation(t *testing.T) {
	master := nn.MLP([]int{4, 6, 2}, 1) // 3 layers
	optf := func() nn.Optimizer { return nn.SGD{LR: 0.1} }
	p := mkPlan(t, master, 4, 4, 2, []int{1, 3}, []int{1, 1})

	if _, err := NewExecutor(nil, master, optf, ExecOptions{}); err == nil {
		t.Fatal("expected error: nil plan")
	}
	if _, err := NewExecutor(p, nil, optf, ExecOptions{}); err == nil {
		t.Fatal("expected error: nil network")
	}
	if _, err := NewExecutor(p, master, nil, ExecOptions{}); err == nil {
		t.Fatal("expected error: nil optimizer factory")
	}
	if _, err := NewExecutor(p, nn.MLP([]int{4, 2}, 1), optf, ExecOptions{}); err == nil {
		t.Fatal("expected error: layer-count mismatch")
	}
	ex, err := NewExecutor(p, master, optf, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ex.Step(nil); err == nil {
		t.Fatal("expected error: no micro-batches")
	}
	if _, err := ex.Step([]Batch{{Y: []int{0}}}); err == nil {
		t.Fatal("expected error, not a panic, for a nil-X micro-batch")
	}
	uneven := []Batch{
		{X: tensor.New(4, 4), Y: []int{0, 1, 0, 1}},
		{X: tensor.New(3, 4), Y: []int{0, 1, 0}},
	}
	if _, err := ex.Step(uneven); err == nil {
		t.Fatal("expected error: unequal micro-batches")
	}
	wide := mkPlan(t, master, 4, 4, 2, []int{3}, []int{8})
	exw, err := NewExecutor(wide, master, optf, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tiny := []Batch{{X: tensor.New(2, 4), Y: []int{0, 1}}}
	if _, err := exw.Step(tiny); err == nil {
		t.Fatal("expected error: fewer rows than replicas")
	}
}

// TestExecutorContextCancel verifies a cancelled context unblocks every
// worker and surfaces ctx.Err.
func TestExecutorContextCancel(t *testing.T) {
	master := nn.MLP([]int{4, 8, 8, 2}, 3) // 5 layers
	p := mkPlan(t, master, 4, 4, 4, []int{2, 5}, []int{1, 1})
	ex, err := NewExecutor(p, master, func() nn.Optimizer { return nn.SGD{LR: 0.1} },
		ExecOptions{Policy: schedule.DapplePA})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ex.StepContext(ctx, makeMicros(4, 4, 4, 2, 9)); err != context.Canceled {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// TestAbortKeepsReplicasConsistent cancels steps at varying points and
// checks the all-or-nothing commit of arGroup.arrive/abandon: whatever a cancelled
// step managed to apply, every replica of a stage must hold bit-identical
// parameters afterwards (updates are identical per replica, so divergence
// can only come from a torn commit).
func TestAbortKeepsReplicasConsistent(t *testing.T) {
	master := nn.MLP([]int{6, 12, 10, 3}, 33) // 5 layers
	p := mkPlan(t, master, 6, 6, 6, []int{3, 5}, []int{2, 2})
	ex, err := NewExecutor(p, master, func() nn.Optimizer { return nn.SGD{LR: 0.05} },
		ExecOptions{Policy: schedule.DapplePA})
	if err != nil {
		t.Fatal(err)
	}
	micros := makeMicros(6, 6, 6, 3, 19)
	for trial := 0; trial < 30; trial++ {
		ctx, cancel := context.WithTimeout(context.Background(),
			time.Duration(trial%6)*200*time.Microsecond)
		_, stepErr := ex.StepContext(ctx, micros) // may succeed or abort
		cancel()
		for si, s := range p.Stages {
			base := ex.StageParams(si, 0)
			for r := 1; r < s.Replicas(); r++ {
				got := ex.StageParams(si, r)
				for i := range got {
					if d := tensor.MaxAbsDiff(got[i].W, base[i].W); d != 0 {
						t.Fatalf("trial %d (err=%v): stage %d replica %d diverged from replica 0 by %g",
							trial, stepErr, si, r, d)
					}
				}
			}
		}
	}
}

// TestExecutorConvergence trains a plan-driven pipeline end to end.
func TestExecutorConvergence(t *testing.T) {
	master := nn.MLP([]int{2, 16, 2}, 17) // 3 layers
	p := mkPlan(t, master, 2, 16, 4, []int{2, 3}, []int{2, 1})
	ex, err := NewExecutor(p, master, func() nn.Optimizer { return nn.NewAdam(5e-3) },
		ExecOptions{Policy: schedule.DapplePA, NoTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	requireConverges(t, ex, separableMicros(31))
}

// separableMicros returns four 16-row micro-batches of points in [-1,1)^2
// labelled by the sign of x*y, which no linear model separates.
func separableMicros(seed int64) []Batch {
	rng := rand.New(rand.NewSource(seed))
	micros := make([]Batch, 4)
	for i := range micros {
		x := tensor.New(16, 2)
		y := make([]int, 16)
		for j := 0; j < 16; j++ {
			a, b := rng.Float64()*2-1, rng.Float64()*2-1
			x.Set(j, 0, a)
			x.Set(j, 1, b)
			if a*b > 0 {
				y[j] = 1
			}
		}
		micros[i] = Batch{X: x, Y: y}
	}
	return micros
}

// requireConverges trains ex for 100 steps on micros and fails unless the
// loss at least halves.
func requireConverges(t *testing.T, ex *Executor, micros []Batch) {
	t.Helper()
	var first, last float64
	for it := 0; it < 100; it++ {
		st, err := ex.Step(micros)
		if err != nil {
			t.Fatal(err)
		}
		if it == 0 {
			first = st.Loss
		}
		last = st.Loss
	}
	if last > first/2 {
		t.Fatalf("plan-driven training barely learned: %g -> %g", first, last)
	}
}

// stepStraight runs one SGD step of a fresh executor over a straight
// (unreplicated) plan of master with the given cuts, under pol.
func stepStraight(t *testing.T, master *nn.Network, micros []Batch, cuts []int, pol schedule.Policy) *ExecResult {
	t.Helper()
	reps := make([]int, len(cuts))
	for i := range reps {
		reps[i] = 1
	}
	p := mkPlan(t, master.Clone(), micros[0].X.Cols, micros[0].X.Rows, len(micros), cuts, reps)
	ex, err := NewExecutor(p, master.Clone(), func() nn.Optimizer { return nn.SGD{LR: 0.1} },
		ExecOptions{Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ex.Step(micros)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestExecutorMemoryBound checks the Fig. 3(c) claim on the plan-driven
// runtime: GPipe stashes all M micro-batches on the first stage while
// DAPPLE's peak stays at its warmup depth.
func TestExecutorMemoryBound(t *testing.T) {
	master := nn.MLP([]int{4, 8, 8, 2}, 3) // 5 layers
	micros := makeMicros(12, 4, 4, 2, 5)

	gs := stepStraight(t, master, micros, []int{3, 5}, schedule.GPipe)
	if gs.MaxStash[0] != len(micros) {
		t.Fatalf("GPipe stage0 stash %d, want %d", gs.MaxStash[0], len(micros))
	}
	ds := stepStraight(t, master, micros, []int{3, 5}, schedule.DapplePA)
	if ds.MaxStash[0] != ds.Warmup[0] {
		t.Fatalf("DAPPLE stage0 stash %d, want its warmup %d", ds.MaxStash[0], ds.Warmup[0])
	}
	if ds.MaxStashBytes[0] >= gs.MaxStashBytes[0] {
		t.Fatalf("DAPPLE stash bytes %d not below GPipe %d", ds.MaxStashBytes[0], gs.MaxStashBytes[0])
	}
}

// TestProfileNetworkShape checks the profile bridge maps layers one-to-one
// with sane byte and time accounting.
func TestProfileNetworkShape(t *testing.T) {
	net := nn.MLP([]int{6, 12, 3}, 1) // 3 layers: D,R,D
	mod, err := ProfileNetwork("bridge", net, 6, 4, 16)
	if err != nil {
		t.Fatal(err)
	}
	if mod.NumLayers() != net.NumLayers() {
		t.Fatalf("profiled %d layers for %d network layers", mod.NumLayers(), net.NumLayers())
	}
	if mod.Layers[0].ParamBytes != (6*12+12)*8 {
		t.Fatalf("dense param bytes %d", mod.Layers[0].ParamBytes)
	}
	if mod.Layers[1].ParamBytes != 0 {
		t.Fatalf("activation has param bytes %d", mod.Layers[1].ParamBytes)
	}
	if mod.Layers[0].OutputBytes != 4*12*8 {
		t.Fatalf("dense output bytes %d", mod.Layers[0].OutputBytes)
	}
	for i, l := range mod.Layers {
		if l.FwdTime <= 0 || l.BwdTime <= 0 {
			t.Fatalf("layer %d has non-positive time", i)
		}
	}
	if _, err := ProfileNetwork("empty", &nn.Network{}, 4, 4, 4); err == nil {
		t.Fatal("expected error: empty network")
	}
}
