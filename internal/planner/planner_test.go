package planner

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"dapple/internal/core"
	"dapple/internal/hardware"
	"dapple/internal/model"
)

// fastOpts keeps unit-test searches cheap.
func fastOpts(gbs int) Options {
	return Options{GBS: gbs, PruneSlack: 1.25, Finalists: 6}
}

func TestPlanValidity(t *testing.T) {
	for _, m := range []*model.Model{model.GNMT16(), model.VGG19()} {
		for _, c := range []hardware.Cluster{hardware.ConfigA(2), hardware.ConfigC(8)} {
			r, err := Plan(m, c, fastOpts(0))
			if err != nil {
				t.Fatalf("%s on %s: %v", m.Name, c.Name, err)
			}
			if err := r.Plan.Validate(); err != nil {
				t.Fatalf("%s on %s: invalid plan: %v", m.Name, c.Name, err)
			}
			if got := len(r.Plan.DevicesUsed()); got != c.NumDevices() {
				t.Fatalf("%s on %s: plan uses %d of %d devices", m.Name, c.Name, got, c.NumDevices())
			}
			if r.Speedup <= 1 || r.Speedup > float64(c.NumDevices())+1e-9 {
				t.Fatalf("%s on %s: speedup %g out of (1, %d]", m.Name, c.Name, r.Speedup, c.NumDevices())
			}
		}
	}
}

func TestResNetPrefersDP(t *testing.T) {
	// Table V: ResNet-50 plans DP on every configuration.
	m := model.ResNet50()
	for _, c := range []hardware.Cluster{hardware.ConfigA(2), hardware.ConfigB(16), hardware.ConfigC(16)} {
		r, err := Plan(m, c, fastOpts(0))
		if err != nil {
			t.Fatal(err)
		}
		if r.Plan.Kind() != core.KindDP {
			t.Fatalf("ResNet-50 on %s: %v, want DP", c.Name, r.Plan)
		}
	}
}

func TestVGGPipelinesOnSlowNet(t *testing.T) {
	// Table V: VGG-19 on config C picks the 15:1-style two-stage pipeline
	// isolating the parameter-heavy fc layers.
	r, err := Plan(model.VGG19(), hardware.ConfigC(16), fastOpts(0))
	if err != nil {
		t.Fatal(err)
	}
	p := r.Plan
	if p.Kind() == core.KindDP {
		t.Fatalf("VGG-19 on config C should pipeline, got %v", p)
	}
	last := p.Stages[len(p.Stages)-1]
	if last.Replicas() > 2 {
		t.Fatalf("fc stage should be nearly unreplicated, got %v", p)
	}
	// The fc stage must hold the bulk of the parameters.
	frac := float64(p.StageParamBytes(p.NumStages()-1)) / float64(p.Model.TotalParamBytes())
	if frac < 0.5 {
		t.Fatalf("last stage holds %.0f%% of params, want most", frac*100)
	}
}

func TestAmoebaNetRejectsDP(t *testing.T) {
	// AmoebaNet-36 cannot run data parallel (exceeds 16 GB): the planner
	// must pipeline.
	r, err := Plan(model.AmoebaNet36(), hardware.ConfigA(2), fastOpts(0))
	if err != nil {
		t.Fatal(err)
	}
	if r.Plan.Kind() == core.KindDP {
		t.Fatal("AmoebaNet-36 DP plan should be memory-infeasible")
	}
}

func TestHierarchicalPlacementStaysLocal(t *testing.T) {
	// On config A, replicated stages should sit inside single servers
	// (Fresh First) so gradient sync rides NVLink.
	r, err := Plan(model.XLNet36(), hardware.ConfigA(2), fastOpts(0))
	if err != nil {
		t.Fatal(err)
	}
	c := r.Plan.Cluster
	for i, s := range r.Plan.Stages {
		if s.Replicas() >= 4 && c.SpansServers(s.Devices) {
			t.Fatalf("stage %d with %d replicas spans servers: %v", i, s.Replicas(), r.Plan)
		}
	}
}

func TestPlacementPolicies(t *testing.T) {
	s := &search{c: hardware.ConfigA(2)}
	used := alloc{3, 0}

	fresh := s.freshFirst(used, 8)
	if fresh[1] != 8 || fresh[0] != 0 {
		t.Fatalf("fresh first should fill server 1: %v", fresh)
	}
	app := s.appendFirst(used, 5)
	if app[0] != 5 {
		t.Fatalf("append first should fill server 0's free slots: %v", app)
	}
	scatter := s.scatterFirst(used, 6)
	if scatter[0] == 0 || scatter[1] == 0 {
		t.Fatalf("scatter should use both servers: %v", scatter)
	}
	if s.freshFirst(used, 13) == nil {
		t.Fatal("13 devices are available")
	}
	if s.freshFirst(used, 14) != nil {
		t.Fatal("14 devices are not available")
	}
}

// Property: every placement take-vector has the requested size and respects
// per-server capacity.
func TestPlacementProperty(t *testing.T) {
	f := func(u0, u1, u2, r8 uint8) bool {
		s := &search{c: hardware.ConfigA(3)}
		used := alloc{int(u0 % 9), int(u1 % 9), int(u2 % 9)}
		free := s.freeTotal(used)
		if free == 0 {
			return true
		}
		r := int(r8)%free + 1
		var buf [3]alloc
		for _, take := range s.placements(used, r, &buf) {
			sum := 0
			for srv, k := range take {
				if k < 0 || used[srv]+k > 8 {
					return false
				}
				sum += k
			}
			if sum != r {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestFitsMemory(t *testing.T) {
	m := model.BERT48()
	c := hardware.ConfigB(2)
	p := &core.Plan{Model: m, Cluster: c, GBS: 64, MicroBatch: 2,
		Stages: []core.Stage{
			{Lo: 0, Hi: 24, Devices: []hardware.DeviceID{0}},
			{Lo: 24, Hi: 48, Devices: []hardware.DeviceID{1}},
		}}
	if !FitsMemory(p, false) {
		t.Fatal("2-stage BERT-48 should fit without recompute")
	}
	// A 400-layer BERT on 2 devices cannot fit even with recompute.
	big := model.BERT(400)
	pb := &core.Plan{Model: big, Cluster: c, GBS: 64, MicroBatch: 2,
		Stages: []core.Stage{
			{Lo: 0, Hi: 200, Devices: []hardware.DeviceID{0}},
			{Lo: 200, Hi: 400, Devices: []hardware.DeviceID{1}},
		}}
	if FitsMemory(pb, true) {
		t.Fatal("BERT-400 cannot fit 2 devices")
	}
	// Recompute strictly relaxes the constraint.
	if FitsMemory(pb, false) {
		t.Fatal("no-recompute cannot fit if recompute does not")
	}
}

func TestGBSOverride(t *testing.T) {
	m := model.BERT48()
	r, err := Plan(m, hardware.ConfigB(4), fastOpts(256))
	if err != nil {
		t.Fatal(err)
	}
	if r.Plan.GBS != 256 {
		t.Fatalf("gbs %d, want 256", r.Plan.GBS)
	}
	if r.Plan.M()*r.Plan.MicroBatch != 256 {
		t.Fatal("sample conservation violated")
	}
}

func TestSimulatedAtMostAnalyticSlack(t *testing.T) {
	// The chosen plan's simulated latency should be within a sane band of
	// its analytic estimate (the DES adds bubbles, never removes work).
	r, err := Plan(model.GNMT16(), hardware.ConfigB(8), fastOpts(0))
	if err != nil {
		t.Fatal(err)
	}
	if r.Latency < r.Analytic*0.99 {
		t.Fatalf("simulation %g below analytic floor %g", r.Latency, r.Analytic)
	}
	if r.Latency > r.Analytic*2 {
		t.Fatalf("simulation %g wildly above analytic %g", r.Latency, r.Analytic)
	}
}

func TestErrorPaths(t *testing.T) {
	bad := &model.Model{Name: "empty"}
	if _, err := Plan(bad, hardware.ConfigB(2), Options{}); err == nil {
		t.Fatal("expected error for empty model")
	}
	m := model.Synthetic(4, 1e-3, 0, 0, 0)
	if _, err := Plan(m, hardware.Cluster{Name: "bad"}, Options{}); err == nil {
		t.Fatal("expected error for invalid cluster")
	}
}

func TestTinyCluster(t *testing.T) {
	m := model.Synthetic(6, 1e-3, 1<<20, 1<<20, 1<<20)
	r, err := Plan(m, hardware.ConfigB(2), fastOpts(8))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(r.Plan.DevicesUsed()); got != 2 {
		t.Fatalf("plan uses %d devices", got)
	}
}

// Property: planner output conserves samples and never assigns overlapping
// devices, across random uniform models and flat cluster sizes.
func TestPlannerInvariantsProperty(t *testing.T) {
	f := func(n8, g8, gbs8 uint8) bool {
		n := int(n8%10) + 4
		g := int(g8%6) + 2
		gbs := (int(gbs8%8) + 1) * 4
		m := model.Synthetic(n, 2e-3, 1<<20, 4<<20, 2<<20)
		r, err := Plan(m, hardware.ConfigB(g), Options{GBS: gbs, PruneSlack: 1.2, Finalists: 4})
		if err != nil {
			return false
		}
		if r.Plan.Validate() != nil {
			return false
		}
		return r.Plan.M()*r.Plan.MicroBatch == gbs &&
			!math.IsInf(r.Latency, 0) && r.Latency > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// Scoring a candidate allocates only when it enters the candidate table.
// Two rejections must not allocate at all: a hybrid candidate that is not
// better than the K-th kept one (dropped before its signature is built), and
// a re-scored one whose signature is already kept with an earlier discovery.
func TestEvaluateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skewed by the race detector")
	}
	for _, c := range []hardware.Cluster{hardware.ConfigA(2), hardware.ConfigB(16)} {
		for _, tc := range []struct {
			name      string
			finalists int
		}{{"rejected by the K-th bound", 1}, {"re-scored", DefaultFinalists}} {
			m := model.GNMT16()
			opts := Options{MaxStages: 2, PruneSlack: 1.25, Finalists: tc.finalists}
			s := newSearch(context.Background(), m, c, opts.Normalize(m.DefaultGBS))
			used := make(alloc, c.Servers)
			take := s.freshFirst(used, 5)
			units, devs, ints := len(s.units), len(s.devs), len(s.ints)
			score := func() {
				s.step(0, 6, used, nil, take, 0)
				s.units, s.devs, s.ints = s.units[:units], s.devs[:devs], s.ints[:ints]
			}
			score()
			if len(s.cands.hybrid) != 1 {
				t.Fatalf("%s: the warm-up recorded %d hybrid candidates, want 1", c.Name, len(s.cands.hybrid))
			}
			if n := testing.AllocsPerRun(100, score); n != 0 {
				t.Errorf("%s(%d): %v allocations per candidate %s, want 0", c.Name, c.Servers, n, tc.name)
			}
		}
	}
}

// A whole default-options plan of the zoo's most expensive pair stays under
// an allocation ceiling: candidates the finalist table rejects allocate
// nothing, branches hand their memo and scratch on to the next branch of
// their worker, and finalist simulations run without a timeline on graph
// builders from schedule's free list, which the garbage collector cannot
// empty, so what is left is memo keys, the kept finalists and the
// simulation totals (about 10.4k allocations on linux/amd64 with go1.24, at
// every -cpu and GOGC setting tried; the ceiling leaves under 25 %
// headroom).
func TestZooPlanAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skewed by the race detector")
	}
	const ceiling = 12_900
	m, c := model.BERT48(), hardware.ConfigB(16)
	n := testing.AllocsPerRun(1, func() {
		if _, err := Plan(m, c, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	if n > ceiling {
		t.Errorf("%s on %s(%d): %v allocations per Plan, want at most %d", m.Name, c.Name, c.Servers, n, ceiling)
	}
}
