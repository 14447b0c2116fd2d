package schedule

import (
	"math"
	"testing"
	"testing/quick"

	"dapple/internal/core"
	"dapple/internal/hardware"
	"dapple/internal/model"
)

// straightPlan builds an s-stage straight pipeline over a uniform model.
func straightPlan(s, layersPerStage, gbs int) *core.Plan {
	m := model.Synthetic(s*layersPerStage, 10e-3, 1<<20, 16<<20, 4<<20)
	c := hardware.ConfigB(s)
	stages := make([]core.Stage, s)
	for i := range stages {
		stages[i] = core.Stage{
			Lo: i * layersPerStage, Hi: (i + 1) * layersPerStage,
			Devices: []hardware.DeviceID{hardware.DeviceID(i)},
		}
	}
	return &core.Plan{Model: m, Cluster: c, Stages: stages, GBS: gbs, MicroBatch: 1}
}

func TestStageOrderGPipe(t *testing.T) {
	order := StageOrder(GPipe, 3, 3)
	want := []Op{{false, 0}, {false, 1}, {false, 2}, {true, 2}, {true, 1}, {true, 0}}
	if len(order) != len(want) {
		t.Fatalf("len %d", len(order))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("op %d = %+v, want %+v", i, order[i], want[i])
		}
	}
}

func TestStageOrderDapple(t *testing.T) {
	order := StageOrder(DapplePA, 5, 2)
	want := []Op{{false, 0}, {false, 1}, {true, 0}, {false, 2}, {true, 1}, {false, 3},
		{true, 2}, {false, 4}, {true, 3}, {true, 4}}
	if len(order) != len(want) {
		t.Fatalf("len %d, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("op %d = %+v, want %+v", i, order[i], want[i])
		}
	}
}

// Property: every stage order contains each forward and backward exactly
// once, forwards in increasing order, and F(m) precedes B(m).
func TestStageOrderProperty(t *testing.T) {
	f := func(m8, k8 uint8, pol8 uint8) bool {
		m := int(m8%20) + 1
		k := int(k8%10) + 1
		pol := Policy(pol8 % 3)
		order := StageOrder(pol, m, k)
		if len(order) != 2*m {
			return false
		}
		seenF := map[int]int{}
		seenB := map[int]int{}
		lastF := -1
		for i, o := range order {
			if o.Backward {
				seenB[o.M]++
				if _, ok := seenF[o.M]; !ok {
					return false // backward before forward
				}
			} else {
				seenF[o.M] = i
				if o.M <= lastF {
					return false // forwards out of order
				}
				lastF = o.M
			}
		}
		return len(seenF) == m && len(seenB) == m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestGPipeMemoryGrowsWithM(t *testing.T) {
	p := straightPlan(2, 4, 64)
	mem := func(m int) float64 {
		res := MustRun(p, Options{Policy: GPipe, M: m, MemLimit: -1})
		return res.AvgPeakMem
	}
	if !(mem(2) < mem(4) && mem(4) < mem(8)) {
		t.Fatalf("GPipe memory not O(M): %g %g %g", mem(2), mem(4), mem(8))
	}
}

func TestDappleMemoryFlatInM(t *testing.T) {
	p := straightPlan(2, 4, 64)
	mem := func(m int) float64 {
		res := MustRun(p, Options{Policy: DapplePA, M: m, MemLimit: -1})
		return res.AvgPeakMem
	}
	if math.Abs(mem(4)-mem(16)) > 1 {
		t.Fatalf("DAPPLE memory not flat: %g vs %g", mem(4), mem(16))
	}
}

func TestDappleWarmupDepth(t *testing.T) {
	p := straightPlan(3, 2, 16)
	res := MustRun(p, Options{Policy: DapplePA, MemLimit: -1})
	for i, st := range res.PerStage {
		if want := 3 - i; st.Warmup != want {
			t.Fatalf("stage %d warmup %d, want %d", i, st.Warmup, want)
		}
	}
	res = MustRun(p, Options{Policy: DapplePB, MemLimit: -1})
	for i, st := range res.PerStage {
		if want := 2*(3-i) - 1; st.Warmup != want {
			t.Fatalf("PB stage %d warmup %d, want %d", i, st.Warmup, want)
		}
	}
}

func TestRecomputeTradesTimeForMemory(t *testing.T) {
	p := straightPlan(2, 4, 32)
	plain := MustRun(p, Options{Policy: GPipe, MemLimit: -1})
	rc := MustRun(p, Options{Policy: GPipe, Recompute: true, MemLimit: -1})
	if rc.IterTime <= plain.IterTime {
		t.Fatal("re-computation should cost time")
	}
	if rc.AvgPeakMem >= plain.AvgPeakMem {
		t.Fatal("re-computation should save memory")
	}
	// ~20% overhead per the paper's calibration.
	overhead := rc.IterTime/plain.IterTime - 1
	if overhead < 0.1 || overhead > 0.35 {
		t.Fatalf("re-computation overhead %.0f%%, want ~20%%", overhead*100)
	}
}

func TestOOMDetection(t *testing.T) {
	p := straightPlan(2, 4, 64)
	res := MustRun(p, Options{Policy: GPipe, M: 64, MemLimit: 1 << 28})
	if !res.OOM {
		t.Fatal("expected OOM at tiny memory limit")
	}
	res = MustRun(p, Options{Policy: GPipe, M: 64, MemLimit: -1})
	if res.OOM {
		t.Fatal("unlimited memory cannot OOM")
	}
}

func TestThroughputImprovesWithM(t *testing.T) {
	p := straightPlan(4, 2, 256)
	t4 := MustRun(p, Options{Policy: DapplePA, M: 4, MemLimit: -1}).Throughput()
	t32 := MustRun(p, Options{Policy: DapplePA, M: 32, MemLimit: -1}).Throughput()
	if t32 <= t4 {
		t.Fatalf("more micro-batches should amortize bubbles: %g vs %g", t4, t32)
	}
}

func TestSimulatedMatchesAnalyticSingleStage(t *testing.T) {
	// For a single (DP) stage the DES and Eq. (1)-(2) agree exactly up to
	// the constant apply time.
	m := model.Synthetic(4, 5e-3, 1<<20, 1<<20, 32<<20)
	c := hardware.ConfigB(4)
	p := &core.Plan{Model: m, Cluster: c, GBS: 16, MicroBatch: 1,
		Stages: []core.Stage{{Lo: 0, Hi: 4, Devices: c.Devices()}}}
	res := MustRun(p, Options{Policy: DapplePA, MemLimit: -1})
	analytic := p.Latency()
	if math.Abs(res.IterTime-analytic-applyTime) > 1e-9 {
		t.Fatalf("sim %g vs analytic %g", res.IterTime, analytic)
	}
}

func TestReplicationSpeedsStages(t *testing.T) {
	m := model.Synthetic(8, 10e-3, 1<<20, 16<<20, 4<<20)
	c := hardware.ConfigA(1)
	mk := func(r0, r1 int) *core.Plan {
		s0 := make([]hardware.DeviceID, r0)
		for i := range s0 {
			s0[i] = hardware.DeviceID(i)
		}
		s1 := make([]hardware.DeviceID, r1)
		for i := range s1 {
			s1[i] = hardware.DeviceID(r0 + i)
		}
		return &core.Plan{Model: m, Cluster: c, GBS: 32, MicroBatch: 1,
			Stages: []core.Stage{{Lo: 0, Hi: 4, Devices: s0}, {Lo: 4, Hi: 8, Devices: s1}}}
	}
	slow := MustRun(mk(1, 1), Options{Policy: DapplePA, MemLimit: -1})
	fast := MustRun(mk(4, 4), Options{Policy: DapplePA, MemLimit: -1})
	if fast.IterTime >= slow.IterTime {
		t.Fatalf("replication did not speed up: %g vs %g", fast.IterTime, slow.IterTime)
	}
}

// Property: simulated iteration time is at least total-work/devices and
// memory accounting never goes negative.
func TestWorkConservationProperty(t *testing.T) {
	f := func(s8, lps8, m8 uint8) bool {
		s := int(s8%4) + 2
		lps := int(lps8%3) + 1
		mcount := int(m8%20) + 1
		p := straightPlan(s, lps, mcount)
		res := MustRun(p, Options{Policy: DapplePA, MemLimit: -1})
		work := float64(mcount) * (p.Model.IterFwdTime(1) + p.Model.IterBwdTime(1))
		if res.IterTime < work/float64(s)-1e-9 {
			return false
		}
		for _, tr := range res.Sim.MemTrace {
			for _, pt := range tr {
				if pt.Bytes < 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestRunValidatesPlan(t *testing.T) {
	p := straightPlan(2, 2, 8)
	p.Stages[1].Lo = 3 // break coverage
	if _, err := Run(p, Options{}); err == nil {
		t.Fatal("expected validation error")
	}
}

func TestGPipeBackwardReversed(t *testing.T) {
	// In GPipe the last stage's first backward is the last micro-batch.
	p := straightPlan(2, 2, 4)
	res := MustRun(p, Options{Policy: GPipe, MemLimit: -1})
	stage1 := res.StageResource(1)
	var names []string
	for _, sp := range res.Sim.Spans {
		if sp.Resource == stage1 && sp.Kind == "bwd" {
			names = append(names, sp.Name())
		}
	}
	if len(names) != 4 || names[0] != "B3.s1" || names[3] != "B0.s1" {
		t.Fatalf("GPipe backward order: %v", names)
	}
}
