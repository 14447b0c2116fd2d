package baselines

import (
	"slices"
	"testing"
	"testing/quick"

	"dapple/internal/core"
	"dapple/internal/hardware"
	"dapple/internal/model"
)

func TestDPNoOverlapBasics(t *testing.T) {
	m := model.ResNet50()
	c := hardware.ConfigA(2)
	r := DPNoOverlap(m, c, 2048)
	if !r.Feasible {
		t.Fatal("ResNet-50 DP must be feasible")
	}
	if r.Speedup <= 1 || r.Speedup > 16 {
		t.Fatalf("speedup %g out of range", r.Speedup)
	}
	if r.Exposed <= 0 {
		t.Fatal("no-overlap exposes the full all-reduce")
	}
}

func TestOverlapBeatsNoOverlap(t *testing.T) {
	for _, m := range []*model.Model{model.ResNet50(), model.VGG19(), model.BERT48()} {
		for _, c := range []hardware.Cluster{hardware.ConfigA(2), hardware.ConfigC(16)} {
			n := DPNoOverlap(m, c, m.DefaultGBS)
			o := DPOverlap(m, c, m.DefaultGBS)
			if o.IterTime > n.IterTime+1e-12 {
				t.Fatalf("%s on %s: overlap slower (%g vs %g)", m.Name, c.Name, o.IterTime, n.IterTime)
			}
			if o.Exposed > n.Exposed {
				t.Fatalf("%s on %s: overlap exposes more comm", m.Name, c.Name)
			}
		}
	}
}

func TestDPSpeedupGrowsWithGBS(t *testing.T) {
	// Gradient accumulation amortizes the sync: bigger global batches scale
	// better (the Fig. 12 x-axis trend).
	m := model.GNMT16()
	c := hardware.ConfigC(16)
	s1 := DPNoOverlap(m, c, 512).Speedup
	s2 := DPNoOverlap(m, c, 4096).Speedup
	if s2 <= s1 {
		t.Fatalf("speedup should grow with GBS: %g vs %g", s1, s2)
	}
}

func TestAmoebaNetDPInfeasible(t *testing.T) {
	r := DPNoOverlap(model.AmoebaNet36(), hardware.ConfigA(2), 128)
	if r.Feasible {
		t.Fatal("AmoebaNet-36 does not fit one device")
	}
}

func TestBalancedCutsCoverAndBalance(t *testing.T) {
	m := model.BERT48()
	for _, g := range []int{2, 3, 7, 16} {
		cuts := BalancedCuts(m, g)
		if len(cuts) != g || cuts[g-1] != m.NumLayers() {
			t.Fatalf("g=%d: cuts %v", g, cuts)
		}
		lo := 0
		var maxT, minT float64
		minT = 1e18
		for _, hi := range cuts {
			if hi <= lo {
				t.Fatalf("empty block in %v", cuts)
			}
			w := m.RangeFwdTime(lo, hi, 2) + m.RangeBwdTime(lo, hi, 2)
			if w > maxT {
				maxT = w
			}
			if w < minT {
				minT = w
			}
			lo = hi
		}
		// Uniform model: blocks within one layer's weight of each other.
		layer := m.Layers[5].FwdTime + m.Layers[5].BwdTime
		if maxT-minT > 2.5*layer {
			t.Fatalf("g=%d unbalanced: %g vs %g", g, minT, maxT)
		}
	}
}

// TestBalancedCutsExact pins the partition on hand-checkable weights: even
// blocks of a uniform model, and a heavy head layer isolated in its own.
func TestBalancedCutsExact(t *testing.T) {
	m := model.Synthetic(8, 1e-3, 0, 0, 0)
	if cuts := BalancedCuts(m, 4); !slices.Equal(cuts, []int{2, 4, 6, 8}) {
		t.Fatalf("cuts %v, want [2 4 6 8]", cuts)
	}
	m.Layers[0].FwdTime = 10e-3
	m.Layers[0].BwdTime = 20e-3
	if cuts := BalancedCuts(m, 2); cuts[0] != 1 {
		t.Fatalf("heavy head should be isolated: %v", cuts)
	}
}

func TestGPipePlanValid(t *testing.T) {
	m := model.BERT48()
	c := hardware.ConfigB(4)
	p := GPipePlan(m, c, 64, 4)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.NumStages() != 4 || p.Kind() != core.KindStraight {
		t.Fatalf("plan %v", p)
	}
}

func TestStraightPipeline(t *testing.T) {
	m := model.GNMT16()
	c := hardware.ConfigA(2)
	p := StraightPipeline(m, c, 1024)
	if p == nil || p.NumStages() != 16 {
		t.Fatalf("straight plan %v", p)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// More devices than layers: impossible.
	if StraightPipeline(model.Synthetic(3, 1e-3, 0, 0, 0), hardware.ConfigB(8), 8) != nil {
		t.Fatal("straight pipeline with more devices than layers")
	}
}

func TestPipeDreamFlatBalances(t *testing.T) {
	m := model.BERT48()
	c := hardware.ConfigB(16)
	p := PipeDream(m, c, 64)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(p.DevicesUsed()) != 16 {
		t.Fatalf("uses %d devices", len(p.DevicesUsed()))
	}
	// Uniform model on a flat cluster: PipeDream prefers deep pipelines
	// over replication (weight sync is charged).
	if p.NumStages() < 4 {
		t.Fatalf("expected deep pipeline, got %v", p)
	}
}

func TestPipeDreamHierarchical(t *testing.T) {
	m := model.VGG19()
	c := hardware.ConfigA(2)
	p := PipeDream(m, c, 1024)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// Level-1 balanced split puts roughly half the compute per machine:
	// the machine boundary must sit inside the conv stack, unlike DAPPLE's
	// conv/fc split.
	firstServerLayers := 0
	for _, s := range p.Stages {
		if p.Cluster.Server(s.Devices[0]) == 0 {
			firstServerLayers = s.Hi
		}
	}
	if firstServerLayers >= 14 {
		t.Fatalf("hierarchical split at %d should be mid-conv (<14)", firstServerLayers)
	}
}

// Property: PipeDream plans are always structurally valid and conserve
// samples for random batch sizes.
func TestPipeDreamValidityProperty(t *testing.T) {
	ms := []*model.Model{model.BERT48(), model.GNMT16(), model.XLNet36()}
	f := func(mi, g8, gbs8 uint8) bool {
		m := ms[int(mi)%len(ms)]
		g := int(g8%8) + 2
		gbs := (int(gbs8%8) + 1) * 16
		p := PipeDream(m, hardware.ConfigB(g), gbs)
		return p.Validate() == nil && p.M()*p.MicroBatch == gbs
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkPipeDreamPlanner measures the baseline planner's DP.
func BenchmarkPipeDreamPlanner(b *testing.B) {
	m := model.BERT48()
	c := hardware.ConfigA(2)
	for i := 0; i < b.N; i++ {
		_ = PipeDream(m, c, 128)
	}
}
