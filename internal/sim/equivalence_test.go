package sim

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// randomGraph builds a DAG stressing every tie-break path: quantized
// durations (so distinct tasks collide on start times), zero-duration and
// NoResource tasks, inverted priorities, and memory events on a few devices.
func randomGraph(rng *rand.Rand) *Graph {
	g := NewGraph()
	nRes := rng.Intn(5) + 1
	for i := 0; i < nRes; i++ {
		g.Resource(string(rune('a' + i)))
	}
	n := rng.Intn(120) + 2
	var ids []TaskID
	for i := 0; i < n; i++ {
		res := rng.Intn(nRes)
		if rng.Intn(8) == 0 {
			res = NoResource
		}
		t := Task{
			Tag:      Tag{Kind: Kind(i % 7), Stage: int32(i % 3), MB: int32(i)},
			Resource: res,
			Duration: float64(rng.Intn(5)) * 0.5, // quantized: forces start-time ties
			Priority: rng.Intn(3) - 1,
		}
		if rng.Intn(3) == 0 {
			t.MemDevice = rng.Intn(3)
			t.AllocBytes = int64(rng.Intn(100))
			t.FreeBytes = int64(rng.Intn(100))
		}
		id := g.Add(t)
		for k := 0; k < 3 && i > 0; k++ {
			if rng.Intn(2) == 0 {
				g.AddDep(id, ids[rng.Intn(i)])
			}
		}
		ids = append(ids, id)
	}
	return g
}

// sameResult asserts byte-identical outcomes of the two engines: spans (in
// execution order), makespan, busy time, peaks and traces.
func sameResult(t *testing.T, want, got *Result) bool {
	t.Helper()
	if !reflect.DeepEqual(want.Spans, got.Spans) {
		for i := range want.Spans {
			if i < len(got.Spans) && want.Spans[i] != got.Spans[i] {
				t.Logf("span %d: reference %+v, event-driven %+v", i, want.Spans[i], got.Spans[i])
				break
			}
		}
		t.Errorf("spans differ (%d vs %d)", len(want.Spans), len(got.Spans))
		return false
	}
	if want.Makespan != got.Makespan {
		t.Errorf("makespan %g vs %g", want.Makespan, got.Makespan)
		return false
	}
	if !reflect.DeepEqual(want.BusyTime, got.BusyTime) {
		t.Errorf("busy time %v vs %v", want.BusyTime, got.BusyTime)
		return false
	}
	if !reflect.DeepEqual(want.PeakMem, got.PeakMem) {
		t.Errorf("peaks %v vs %v", want.PeakMem, got.PeakMem)
		return false
	}
	if !reflect.DeepEqual(want.MemTrace, got.MemTrace) {
		t.Errorf("memory traces differ")
		return false
	}
	if !reflect.DeepEqual(want.Resources, got.Resources) {
		t.Errorf("resources %v vs %v", want.Resources, got.Resources)
		return false
	}
	return true
}

// sameTotals asserts that a run without a timeline matches the timeline
// run bit for bit in makespan, busy time, peaks and resources, and that it
// recorded neither spans nor memory traces.
func sameTotals(t *testing.T, timeline, scored *Result) bool {
	t.Helper()
	if scored.Spans != nil || scored.MemTrace != nil {
		t.Errorf("a run without a timeline recorded %d spans and %d memory traces",
			len(scored.Spans), len(scored.MemTrace))
		return false
	}
	if timeline.Makespan != scored.Makespan ||
		!reflect.DeepEqual(timeline.BusyTime, scored.BusyTime) ||
		!reflect.DeepEqual(timeline.PeakMem, scored.PeakMem) ||
		!reflect.DeepEqual(timeline.Resources, scored.Resources) {
		t.Errorf("totals differ: timeline %g %v %v, without %g %v %v",
			timeline.Makespan, timeline.BusyTime, timeline.PeakMem,
			scored.Makespan, scored.BusyTime, scored.PeakMem)
		return false
	}
	return true
}

// TestEngineEquivalenceRandomDAGs cross-checks the event-driven engine
// against the pre-rewrite linear-scan engine on randomized DAGs, and the
// engine's run without a timeline against its timeline run.
func TestEngineEquivalenceRandomDAGs(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(rand.New(rand.NewSource(seed)))
		run := g.Run()
		scored, err := g.Score(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return sameResult(t, g.RunReference(), run) && sameTotals(t, run, scored)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestSpansInExecutionOrder pins the Result.Spans contract: starts are
// non-decreasing. (Equal-start runs follow the engine's pick order, which
// dependency chains through zero-duration tasks keep from being a plain
// (priority, ID) sort — so only monotonicity is asserted.)
func TestSpansInExecutionOrder(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(rand.New(rand.NewSource(seed)))
		res := g.Run()
		for i := 1; i < len(res.Spans); i++ {
			prev, cur := res.Spans[i-1], res.Spans[i]
			if cur.Start < prev.Start {
				t.Errorf("span %d starts at %g after a span starting at %g", i, cur.Start, prev.Start)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestAllocBeforeFreeAtSameInstant is the regression test for the
// memory-event ordering fix: a task B allocating at the exact instant a task
// A ends must see A's footprint still resident, so the device peak counts
// both. The pre-fix engine applied events in insertion order, letting A's
// free land first and under-counting the peak by A's bytes.
func TestAllocBeforeFreeAtSameInstant(t *testing.T) {
	build := func() *Graph {
		g := NewGraph()
		r1, r2 := g.Resource("r1"), g.Resource("r2")
		// A runs [0,1) on r1 holding 100 bytes, freed at t=1.
		g.Add(Task{Resource: r1, Duration: 1, MemDevice: 0, AllocBytes: 100, FreeBytes: 100})
		// C delays B to t=1 without touching memory.
		c := g.Add(Task{Resource: r2, Duration: 1})
		// B allocates 100 bytes at t=1 — the instant A's free lands.
		b := g.Add(Task{Resource: r2, Duration: 1, MemDevice: 0, AllocBytes: 100})
		g.AddDep(b, c)
		return g
	}
	for name, res := range map[string]*Result{
		"event-driven": build().Run(),
		"reference":    build().RunReference(),
	} {
		if res.PeakMem[0] != 200 {
			t.Errorf("%s: peak %d, want 200 (alloc at t=1 must apply before the free at t=1)",
				name, res.PeakMem[0])
		}
		last := res.MemTrace[0][len(res.MemTrace[0])-1]
		if last.Bytes != 100 {
			t.Errorf("%s: final residency %d, want 100", name, last.Bytes)
		}
	}
}

// TestGraphReuse exercises Reset: rebuilding a different graph on the same
// Graph must produce results identical to a fresh build, its resources
// interned again from scratch.
func TestGraphReuse(t *testing.T) {
	g := NewGraph()
	rng := rand.New(rand.NewSource(7))
	build := func(g *Graph, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		nRes := 3
		for i := 0; i < nRes; i++ {
			g.Resource(string(rune('a' + i)))
		}
		var ids []TaskID
		for i := 0; i < 50+int(seed%17); i++ {
			id := g.Add(Task{
				Resource: rng.Intn(nRes), Duration: float64(rng.Intn(4)) * 0.25,
				Priority: rng.Intn(2), MemDevice: rng.Intn(2), AllocBytes: int64(rng.Intn(50) + 1),
			})
			if i > 0 && rng.Intn(2) == 0 {
				g.AddDep(id, ids[rng.Intn(i)])
			}
			ids = append(ids, id)
		}
	}
	for trial := 0; trial < 10; trial++ {
		seed := rng.Int63n(1000)
		g.Reset()
		build(g, seed)
		fresh := NewGraph()
		build(fresh, seed)
		if !sameResult(t, fresh.Run(), g.Run()) {
			t.Fatalf("trial %d (seed %d): reused graph diverged from fresh graph", trial, seed)
		}
	}
}
