package planner

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dapple/internal/core"
	"dapple/internal/hardware"
	"dapple/internal/model"
)

// resultFingerprint renders everything observable about a planning result —
// stage splits, replication, exact device assignments, latencies and the
// explored-state count — so two runs can be compared byte-for-byte.
func resultFingerprint(r *Result) string {
	s := fmt.Sprintf("%s|%s|", r.Plan.SplitString(), r.Plan.ReplicaString())
	for _, st := range r.Plan.Stages {
		s += fmt.Sprintf("%v;", st.Devices)
	}
	return s + fmt.Sprintf("|sim=%v|analytic=%v|rc=%v|pol=%v|explored=%d",
		r.Latency, r.Analytic, r.NeedsRecompute, r.Policy, r.Explored)
}

// Regression for the tentpole guarantee: the fan-out over first-stage split
// points must return byte-identical results for every worker count. Three
// zoo models, hierarchical and flat clusters.
func TestParallelSearchDeterminism(t *testing.T) {
	cases := []struct {
		m *model.Model
		c hardware.Cluster
	}{
		{model.GNMT16(), hardware.ConfigA(2)},
		{model.VGG19(), hardware.ConfigC(8)},
		{model.XLNet36(), hardware.ConfigA(2)},
	}
	for _, tc := range cases {
		var base string
		for _, w := range []int{1, 2, 8} {
			r, err := Plan(tc.m, tc.c, Options{Workers: w, PruneSlack: 1.25, Finalists: 6})
			if err != nil {
				t.Fatalf("%s on %s workers=%d: %v", tc.m.Name, tc.c.Name, w, err)
			}
			fp := resultFingerprint(r)
			if w == 1 {
				base = fp
				continue
			}
			if fp != base {
				t.Errorf("%s on %s: workers=%d diverged from workers=1:\n  1: %s\n  %d: %s",
					tc.m.Name, tc.c.Name, w, base, w, fp)
			}
		}
	}
}

// Property flavor of the determinism regression: random models whose
// fan-out improves the seed incumbent mid-search are exactly where a
// worker-count-dependent chunk size would leak into pruning decisions, so
// the guarantee is checked beyond the three fixed zoo cases.
func TestParallelDeterminismProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 6; trial++ {
		m := randomModel(rng, 8+rng.Intn(9))
		c := hardware.ConfigA(2)
		var base string
		for _, w := range []int{1, 8} {
			r, err := Plan(m, c, Options{Workers: w, PruneSlack: 1.25, Finalists: 6})
			if err != nil {
				t.Fatalf("trial %d workers=%d: %v", trial, w, err)
			}
			fp := resultFingerprint(r)
			if w == 1 {
				base = fp
			} else if fp != base {
				t.Errorf("trial %d: workers=8 diverged from workers=1:\n  1: %s\n  8: %s", trial, base, fp)
			}
		}
	}
}

// Repeated identical searches must agree with themselves: the tie-breaking
// fix (candidate sequence numbers) removes the map-iteration-order
// nondeterminism the pre-parallel finalize had.
func TestRepeatedSearchStability(t *testing.T) {
	m, c := model.GNMT16(), hardware.ConfigA(2)
	var base string
	for i := 0; i < 3; i++ {
		r, err := Plan(m, c, Options{PruneSlack: 1.3, Finalists: 8})
		if err != nil {
			t.Fatal(err)
		}
		fp := resultFingerprint(r)
		if i == 0 {
			base = fp
		} else if fp != base {
			t.Fatalf("run %d diverged:\n  0: %s\n  %d: %s", i, base, i, fp)
		}
	}
}

// randomModel builds a small model with independently random per-layer
// compute and activation profiles — the adversarial input for the pruning
// soundness property.
func randomModel(rng *rand.Rand, n int) *model.Model {
	layers := make([]model.Layer, n)
	for i := range layers {
		layers[i] = model.Layer{
			Name:        fmt.Sprintf("L%d", i),
			FwdTime:     (0.5 + rng.Float64()) * 3e-3,
			BwdTime:     (0.5 + rng.Float64()) * 6e-3,
			OutputBytes: int64(1+rng.Intn(32)) << 18,
			StoredBytes: int64(1+rng.Intn(32)) << 19,
			ParamBytes:  int64(1+rng.Intn(64)) << 18,
		}
	}
	return &model.Model{
		Name:                   fmt.Sprintf("rand-%d", n),
		Layers:                 layers,
		ProfileBatch:           2,
		DefaultGBS:             32,
		OptimizerBytesPerParam: model.AdamBytesPerParam,
	}
}

// Property: branch-and-bound pruning is sound — on small random models the
// pruned search never returns a worse plan than the exhaustive search
// (NoPrune disables the lower bound, the dominance memo and the slack cut).
//
// The first trials run on small flat clusters, the last ones on one
// 8-GPU server, where placement shapes (and so the fixed first stage's
// all-reduce term of the bound) differ between otherwise equal states.
func TestPruningSoundnessProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 15; trial++ {
		n := 4 + rng.Intn(5)
		m := randomModel(rng, n)
		c := hardware.ConfigB(2 + rng.Intn(3))
		if trial >= 10 {
			c = hardware.ConfigA(1)
		}
		gbs := (1 + rng.Intn(4)) * 8

		pruned, err := Plan(m, c, Options{GBS: gbs})
		if err != nil {
			t.Fatalf("trial %d: pruned: %v", trial, err)
		}
		exhaustive, err := Plan(m, c, Options{GBS: gbs, NoPrune: true, Finalists: 1 << 20})
		if err != nil {
			t.Fatalf("trial %d: exhaustive: %v", trial, err)
		}
		if pruned.Latency > exhaustive.Latency*(1+1e-9) {
			t.Errorf("trial %d (%s on %s, gbs %d): pruned %.6gms worse than exhaustive %.6gms (pruned %v, exhaustive %v)",
				trial, m.Name, c.Name, gbs,
				pruned.Latency*1e3, exhaustive.Latency*1e3, pruned.Plan, exhaustive.Plan)
		}
		if pruned.Explored > exhaustive.Explored {
			t.Errorf("trial %d: pruned search explored more states (%d) than exhaustive (%d)",
				trial, pruned.Explored, exhaustive.Explored)
		}
	}
}

// Property: the search's lower bound never exceeds the latency it bounds.
// boundOf is checked against core.PipelineLatency on random unit lists of 1
// to 8 units and 1 to 128 micro-batches, with its maximum F+B taken over the
// whole list and its head from the list's first unit. Units are drawn from
// four shapes: ordinary stages, boundary-like units (F = B, no all-reduce),
// near-zero-cost units, and all-reduce-heavy stages whose AR term dwarfs
// their compute, so every phase of Eq. (2) gets to dominate.
func TestLowerBoundAdmissible(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	unit := func() core.Unit {
		switch rng.Intn(4) {
		case 0:
			v := rng.Float64()
			return core.Unit{F: v, B: v, Comm: true}
		case 1:
			return core.Unit{F: 1e-12 * rng.Float64(), B: 1e-12 * rng.Float64()}
		case 2:
			return core.Unit{F: rng.Float64(), B: rng.Float64(), AR: 1e3 * rng.Float64()}
		default:
			return core.Unit{F: rng.Float64(), B: 2 * rng.Float64(), AR: rng.Float64()}
		}
	}
	for trial := 0; trial < 100_000; trial++ {
		units := make([]core.Unit, 1+rng.Intn(8))
		maxFB := 0.0
		for i := range units {
			units[i] = unit()
			maxFB = math.Max(maxFB, units[i].F+units[i].B)
		}
		m := 1 + rng.Intn(128)
		s := &search{mOne: float64(m - 1), units: units}
		lb := s.boundOf(maxFB)
		if l := core.PipelineLatency(units, m).Latency(); lb > l*(1+1e-12) {
			t.Fatalf("trial %d: bound %v exceeds latency %v (M=%d, units %+v)", trial, lb, l, m, units)
		}
	}
}
