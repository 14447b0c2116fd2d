package trace

import (
	"strings"
	"testing"

	"dapple/internal/sim"
)

func TestRecorderResultShape(t *testing.T) {
	r := NewRecorder()
	a := r.Resource("dev0")
	b := r.Resource("dev1")
	if r.Resource("dev0") != a {
		t.Fatal("Resource must intern")
	}
	r.Record(a, sim.Tag{Kind: sim.Fwd}, 0.0, 1.0)
	r.Record(b, sim.Tag{Kind: sim.Fwd, Stage: 1}, 0.5, 2.0)
	r.Record(a, sim.Tag{Kind: sim.Bwd}, 1.0, 3.5)
	r.Record(b, sim.Tag{Kind: sim.Bwd, Stage: 1}, 2.0, 3.0)

	res := r.Result()
	if len(res.Spans) != 4 {
		t.Fatalf("got %d spans", len(res.Spans))
	}
	if res.Makespan != 3.5 {
		t.Fatalf("makespan %g", res.Makespan)
	}
	if res.BusyTime[a] != 3.5 || res.BusyTime[b] != 2.5 {
		t.Fatalf("busy %v", res.BusyTime)
	}
	if res.ResourceIndex("dev1") != b || res.ResourceIndex("nope") != -1 {
		t.Fatal("ResourceIndex lookup failed")
	}
	// Spans are merged in start order with per-resource order preserved.
	for i := 1; i < len(res.Spans); i++ {
		if res.Spans[i].Start < res.Spans[i-1].Start {
			t.Fatal("spans not sorted by start")
		}
	}
	var devA []string
	for _, s := range res.Spans {
		if s.Resource == a {
			devA = append(devA, s.Name())
		}
	}
	if strings.Join(devA, ",") != "F0.s0,B0.s0" {
		t.Fatalf("per-resource order broken: %v", devA)
	}
	// The recorded result renders through the same Gantt path as simulated
	// results.
	if g := Gantt(res, 40); !strings.Contains(g, "dev0") {
		t.Fatalf("gantt missing resource row:\n%s", g)
	}
}

// TestRecorderReset checks a reset recorder keeps its interned resources and
// records a fresh, independent iteration without re-registration.
func TestRecorderReset(t *testing.T) {
	r := NewRecorder()
	a := r.Resource("dev0")
	r.Record(a, sim.Tag{Kind: sim.Fwd}, 0, 1)
	first := r.Result()
	if len(first.Spans) != 1 {
		t.Fatalf("first iteration recorded %d spans", len(first.Spans))
	}

	r.Reset()
	if r.Resource("dev0") != a {
		t.Fatal("Reset dropped interned resources")
	}
	r.Record(a, sim.Tag{Kind: sim.Fwd, MB: 1}, 0, 2)
	second := r.Result()
	if len(second.Spans) != 1 || second.Spans[0].Name() != "F1.s0" {
		t.Fatalf("post-reset result carries stale spans: %+v", second.Spans)
	}
	if second.Makespan != 2 {
		t.Fatalf("post-reset makespan %g", second.Makespan)
	}
	// Results snapshot: the first result must be unaffected by the reset.
	if first.Spans[0].Name() != "F0.s0" {
		t.Fatal("earlier Result mutated by Reset")
	}
}
