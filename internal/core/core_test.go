package core

import (
	"math"
	"testing"
	"testing/quick"

	"dapple/internal/hardware"
	"dapple/internal/model"
)

func devs(ids ...int) []hardware.DeviceID {
	out := make([]hardware.DeviceID, len(ids))
	for i, d := range ids {
		out[i] = hardware.DeviceID(d)
	}
	return out
}

// twoStage builds a 2-stage plan over a uniform synthetic model.
func twoStage(cut, r0, r1, gbs int) *Plan {
	m := model.Synthetic(8, 10e-3, 1<<20, 4<<20, 8<<20)
	c := hardware.ConfigB(r0 + r1)
	s0 := make([]hardware.DeviceID, r0)
	for i := range s0 {
		s0[i] = hardware.DeviceID(i)
	}
	s1 := make([]hardware.DeviceID, r1)
	for i := range s1 {
		s1[i] = hardware.DeviceID(r0 + i)
	}
	return &Plan{
		Model: m, Cluster: c, GBS: gbs, MicroBatch: 1,
		Stages: []Stage{{Lo: 0, Hi: cut, Devices: s0}, {Lo: cut, Hi: 8, Devices: s1}},
	}
}

func TestPlanKinds(t *testing.T) {
	p := twoStage(4, 1, 1, 8)
	if p.Kind() != KindStraight {
		t.Fatalf("kind %v, want straight", p.Kind())
	}
	p = twoStage(4, 2, 2, 8)
	if p.Kind() != KindHybrid {
		t.Fatalf("kind %v, want hybrid", p.Kind())
	}
	dp := &Plan{
		Model: p.Model, Cluster: p.Cluster, GBS: 8, MicroBatch: 1,
		Stages: []Stage{{Lo: 0, Hi: 8, Devices: devs(0, 1, 2, 3)}},
	}
	if dp.Kind() != KindDP {
		t.Fatalf("kind %v, want DP", dp.Kind())
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	good := twoStage(4, 1, 1, 8)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}

	gap := twoStage(4, 1, 1, 8)
	gap.Stages[1].Lo = 5
	if gap.Validate() == nil {
		t.Fatal("expected error for layer gap")
	}

	dup := twoStage(4, 1, 1, 8)
	dup.Stages[1].Devices = dup.Stages[0].Devices
	if dup.Validate() == nil {
		t.Fatal("expected error for duplicate devices")
	}

	bad := twoStage(4, 1, 1, 8)
	bad.MicroBatch = 3 // does not divide GBS 8
	if bad.Validate() == nil {
		t.Fatal("expected error for non-dividing micro-batch")
	}

	short := twoStage(4, 1, 1, 8)
	short.Stages = short.Stages[:1]
	if short.Validate() == nil {
		t.Fatal("expected error for incomplete coverage")
	}
}

func TestChooseMicroBatch(t *testing.T) {
	m := model.Synthetic(4, 1e-3, 0, 0, 0)
	m.ProfileBatch = 64
	if got := ChooseMicroBatch(m, 1024); got != 64 {
		t.Fatalf("got %d, want 64", got)
	}
	if got := ChooseMicroBatch(m, 32); got != 32 {
		t.Fatalf("clamp to gbs: got %d", got)
	}
	m.ProfileBatch = 48
	if got := ChooseMicroBatch(m, 128); 128%got != 0 {
		t.Fatalf("micro-batch %d does not divide 128", got)
	}
}

func TestStageTimesScaleWithReplication(t *testing.T) {
	p1 := twoStage(4, 1, 1, 8)
	p2 := twoStage(4, 2, 2, 8)
	p2.MicroBatch = p1.MicroBatch
	if got, want := p2.StageFwdTime(0), p1.StageFwdTime(0)/2; math.Abs(got-want) > 1e-12 {
		t.Fatalf("replicated stage time %g, want %g", got, want)
	}
}

func TestSampleConservation(t *testing.T) {
	p := twoStage(4, 1, 1, 32)
	if p.M()*p.MicroBatch != p.GBS {
		t.Fatalf("M*mb = %d, GBS = %d", p.M()*p.MicroBatch, p.GBS)
	}
}

func TestPivotSelection(t *testing.T) {
	// The unit with the largest F+B dominates the steady phase.
	units := []Unit{
		{F: 1, B: 2},
		{F: 0.1, B: 0.1, Comm: true},
		{F: 3, B: 6},
	}
	if q := PivotStage(units, 8); q != 2 {
		t.Fatalf("pivot %d, want 2", q)
	}
	units[0], units[2] = units[2], units[0]
	if q := PivotStage(units, 8); q != 0 {
		t.Fatalf("pivot %d, want 0", q)
	}
}

func TestPipelineLatencySingleStage(t *testing.T) {
	// One stage: L = F + (M-1)(F+B) + B + AR, the DP/accumulation formula.
	units := []Unit{{F: 1, B: 2, AR: 5}}
	ph := PipelineLatency(units, 4)
	want := 1.0 + 3*3 + (2 + 5)
	if math.Abs(ph.Latency()-want) > 1e-12 {
		t.Fatalf("latency %g, want %g", ph.Latency(), want)
	}
}

func TestPipelineLatencyStraight(t *testing.T) {
	// Uniform 3-stage straight pipeline, no AR: classic (M+S-1) behaviour.
	units := []Unit{{F: 1, B: 2}, {F: 1, B: 2}, {F: 1, B: 2}}
	ph := PipelineLatency(units, 5)
	// Tw = 3, Ts = 4*3 = 12, Te = B-chain to stage 0 = 6.
	if ph.Warmup != 3 || ph.Steady != 12 || ph.Ending != 6 {
		t.Fatalf("phases %+v", ph)
	}
}

// Property: latency is monotone in M and at least M*(F_Q+B_Q).
func TestLatencyMonotoneProperty(t *testing.T) {
	f := func(seed int64, m8 uint8) bool {
		m := int(m8%30) + 2
		units := []Unit{
			{F: 1 + float64(seed%7), B: 2},
			{F: 0.5, B: 0.5, Comm: true},
			{F: 2, B: 4 + float64(seed%5)},
		}
		l1 := PipelineLatency(units, m).Latency()
		l2 := PipelineLatency(units, m+1).Latency()
		if l2 <= l1 {
			return false
		}
		q := PivotStage(units, m)
		floor := float64(m-1) * (units[q].F + units[q].B)
		return l1 >= floor
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestACRBehaviour(t *testing.T) {
	// Bigger boundaries -> bigger ACR; single stage -> zero.
	small := twoStage(4, 1, 1, 8)
	big := twoStage(4, 1, 1, 8)
	big.Model = model.Synthetic(8, 10e-3, 64<<20, 4<<20, 8<<20)
	if small.ACR() >= big.ACR() {
		t.Fatalf("ACR not increasing with boundary: %g vs %g", small.ACR(), big.ACR())
	}
	dp := &Plan{Model: small.Model, Cluster: small.Cluster, GBS: 8, MicroBatch: 1,
		Stages: []Stage{{Lo: 0, Hi: 8, Devices: devs(0)}}}
	if dp.ACR() != 0 {
		t.Fatal("DP plan must have zero ACR")
	}
}

func TestStrings(t *testing.T) {
	p := twoStage(3, 2, 2, 8)
	if p.SplitString() != "3:5" {
		t.Fatalf("split %q", p.SplitString())
	}
	if p.ReplicaString() != "2:2" {
		t.Fatalf("replicas %q", p.ReplicaString())
	}
	if p.String() == "" || p.Kind().String() == "" {
		t.Fatal("empty strings")
	}
}

func TestSpeedupBounded(t *testing.T) {
	// Speedup can never exceed the device count (work conservation).
	for _, r := range []int{1, 2, 4} {
		p := twoStage(4, r, r, 64)
		if s := p.Speedup(); s > float64(2*r)+1e-9 {
			t.Fatalf("superlinear speedup %g on %d devices", s, 2*r)
		}
	}
}

func TestBubbleFraction(t *testing.T) {
	p := twoStage(4, 1, 1, 64)
	bf := p.BubbleFraction()
	if bf < 0 || bf > 1 {
		t.Fatalf("bubble fraction %g out of range", bf)
	}
}

func TestDevicesUsed(t *testing.T) {
	p := twoStage(4, 2, 3, 8)
	ds := p.DevicesUsed()
	if len(ds) != 5 {
		t.Fatalf("%d devices", len(ds))
	}
	for i := 1; i < len(ds); i++ {
		if ds[i] <= ds[i-1] {
			t.Fatal("not sorted")
		}
	}
}

func TestUnitsStructure(t *testing.T) {
	p := twoStage(4, 1, 1, 8)
	units := p.Units()
	if len(units) != 3 {
		t.Fatalf("%d units, want 3 (stage, comm, stage)", len(units))
	}
	if !units[1].Comm || units[0].Comm || units[2].Comm {
		t.Fatal("comm flags wrong")
	}
	if units[1].AR != 0 {
		t.Fatal("comm units have no all-reduce")
	}
}

// The planner scores every candidate with Latency after Validate, so
// neither may allocate.
func TestPlanAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skewed by the race detector")
	}
	c := hardware.ConfigA(2)
	p := &Plan{Model: model.Synthetic(16, 10e-3, 1<<20, 4<<20, 8<<20), Cluster: c, GBS: 64, MicroBatch: 4,
		Stages: []Stage{
			{Lo: 0, Hi: 4, Devices: devs(0, 1, 2)},
			{Lo: 4, Hi: 8, Devices: devs(3, 4, 5, 6, 7, 8)},
			{Lo: 8, Hi: 12, Devices: devs(9, 10)},
			{Lo: 12, Hi: 16, Devices: devs(11, 12, 13, 14, 15)},
		}}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { p.Latency() }); n != 0 {
		t.Errorf("Latency: %v allocations per call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { _ = p.Validate() }); n != 0 {
		t.Errorf("Validate: %v allocations per call, want 0", n)
	}
}
