package sim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSequentialOnOneResource(t *testing.T) {
	g := NewGraph()
	r := g.Resource("dev")
	a := g.Add(Task{Resource: r, Duration: 1})
	b := g.Add(Task{Resource: r, Duration: 2})
	_ = a
	_ = b
	res := g.Run()
	if res.Makespan != 3 {
		t.Fatalf("makespan %g, want 3", res.Makespan)
	}
	if res.BusyTime[r] != 3 {
		t.Fatalf("busy %g", res.BusyTime[r])
	}
	if res.Utilization(r) != 1 {
		t.Fatalf("utilization %g", res.Utilization(r))
	}
}

func TestDependencyOrdering(t *testing.T) {
	g := NewGraph()
	r1, r2 := g.Resource("d1"), g.Resource("d2")
	a := g.Add(Task{Resource: r1, Duration: 5})
	b := g.Add(Task{Resource: r2, Duration: 1})
	g.AddDep(b, a)
	res := g.Run()
	var bSpan Span
	for _, s := range res.Spans {
		if s.Task == b {
			bSpan = s
		}
	}
	if bSpan.Start != 5 {
		t.Fatalf("b starts at %g, want 5", bSpan.Start)
	}
	if res.Makespan != 6 {
		t.Fatalf("makespan %g", res.Makespan)
	}
}

func TestParallelResources(t *testing.T) {
	g := NewGraph()
	for i := 0; i < 4; i++ {
		g.Add(Task{Resource: g.Resource(string(rune('a' + i))), Duration: 2})
	}
	res := g.Run()
	if res.Makespan != 2 {
		t.Fatalf("independent tasks should run in parallel: makespan %g", res.Makespan)
	}
}

func TestPriorityTieBreak(t *testing.T) {
	g := NewGraph()
	r := g.Resource("dev")
	lo := g.Add(Task{Resource: r, Duration: 1, Priority: 2})
	hi := g.Add(Task{Resource: r, Duration: 1, Priority: 1})
	_ = lo
	_ = hi
	res := g.Run()
	if res.Spans[0].Task != hi {
		t.Fatalf("priority ignored: first span is task %d", res.Spans[0].Task)
	}
}

func TestNoResourceTask(t *testing.T) {
	g := NewGraph()
	r := g.Resource("dev")
	barrier := g.Add(Task{Resource: NoResource})
	work := g.Add(Task{Resource: r, Duration: 1})
	g.AddDep(work, barrier)
	res := g.Run()
	if res.Makespan != 1 {
		t.Fatalf("makespan %g", res.Makespan)
	}
}

func TestMemoryAccounting(t *testing.T) {
	g := NewGraph()
	r := g.Resource("dev")
	a := g.Add(Task{Resource: r, Duration: 1, MemDevice: 0, AllocBytes: 100})
	b := g.Add(Task{Resource: r, Duration: 1, MemDevice: 0, AllocBytes: 50, FreeBytes: 150})
	g.AddDep(b, a)
	res := g.Run()
	if res.PeakMem[0] != 150 {
		t.Fatalf("peak %d, want 150", res.PeakMem[0])
	}
	trace := res.MemTrace[0]
	last := trace[len(trace)-1]
	if last.Bytes != 0 {
		t.Fatalf("final memory %d, want 0", last.Bytes)
	}
}

func TestCycleDetection(t *testing.T) {
	g := NewGraph()
	r := g.Resource("dev")
	a := g.Add(Task{Resource: r, Duration: 1})
	b := g.Add(Task{Resource: r, Duration: 1})
	g.AddDep(a, b)
	g.AddDep(b, a)
	defer func() {
		if recover() == nil {
			t.Fatal("expected cycle panic")
		}
	}()
	g.Run()
}

func TestValidate(t *testing.T) {
	g := NewGraph()
	g.Add(Task{Resource: NoResource, Duration: -1})
	if err := g.Validate(); err == nil {
		t.Fatal("expected error for negative duration")
	}
	g2 := NewGraph()
	id := g2.Add(Task{Resource: NoResource})
	g2.AddDep(id, TaskID(99))
	if err := g2.Validate(); err == nil {
		t.Fatal("expected error for unknown dependency")
	}
}

func TestDeterminism(t *testing.T) {
	build := func() *Graph {
		g := NewGraph()
		rng := rand.New(rand.NewSource(5))
		var prev TaskID = -1
		for i := 0; i < 200; i++ {
			r := g.Resource(string(rune('a' + i%7)))
			id := g.Add(Task{Resource: r, Duration: rng.Float64()})
			if prev >= 0 && i%3 == 0 {
				g.AddDep(id, prev)
			}
			prev = id
		}
		return g
	}
	a := build().Run()
	b := build().Run()
	if a.Makespan != b.Makespan || len(a.Spans) != len(b.Spans) {
		t.Fatal("runs differ")
	}
	for i := range a.Spans {
		if a.Spans[i] != b.Spans[i] {
			t.Fatalf("span %d differs", i)
		}
	}
}

// Property: makespan is at least the critical path lower bound (longest
// chain) and at least the busiest resource's total work.
func TestMakespanBoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := NewGraph()
		nRes := rng.Intn(4) + 1
		for i := 0; i < nRes; i++ {
			g.Resource(string(rune('a' + i)))
		}
		n := rng.Intn(40) + 2
		durs := make([]float64, n)
		longest := make([]float64, n)
		resWork := make([]float64, nRes)
		var ids []TaskID
		for i := 0; i < n; i++ {
			durs[i] = rng.Float64()
			r := rng.Intn(nRes)
			id := g.Add(Task{Resource: r, Duration: durs[i]})
			longest[i] = durs[i]
			// Random deps on earlier tasks (keeps it acyclic).
			for k := 0; k < 2 && i > 0; k++ {
				d := rng.Intn(i)
				g.AddDep(id, ids[d])
				if longest[d]+durs[i] > longest[i] {
					longest[i] = longest[d] + durs[i]
				}
			}
			resWork[r] += durs[i]
			ids = append(ids, id)
		}
		res := g.Run()
		var lb float64
		for _, l := range longest {
			lb = math.Max(lb, l)
		}
		for _, w := range resWork {
			lb = math.Max(lb, w)
		}
		return res.Makespan >= lb-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: spans on one resource never overlap.
func TestNoResourceOverlapProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := NewGraph()
		for i := 0; i < 3; i++ {
			g.Resource(string(rune('x' + i)))
		}
		var ids []TaskID
		for i := 0; i < 60; i++ {
			id := g.Add(Task{Resource: rng.Intn(3), Duration: rng.Float64() * 2})
			if i > 0 && rng.Intn(2) == 0 {
				g.AddDep(id, ids[rng.Intn(i)])
			}
			ids = append(ids, id)
		}
		res := g.Run()
		byRes := map[int][]Span{}
		for _, s := range res.Spans {
			byRes[s.Resource] = append(byRes[s.Resource], s)
		}
		for _, spans := range byRes {
			for i := 1; i < len(spans); i++ {
				if spans[i].Start < spans[i-1].End-1e-12 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPeakMem(t *testing.T) {
	g := NewGraph()
	r1, r2 := g.Resource("a"), g.Resource("b")
	g.Add(Task{Resource: r1, Duration: 2, MemDevice: 0, AllocBytes: 10})
	g.Add(Task{Resource: r2, Duration: 1, MemDevice: 1, AllocBytes: 30})
	res := g.Run()
	if res.MaxPeakMem() != 30 {
		t.Fatalf("max peak %d", res.MaxPeakMem())
	}
	if got := res.AvgPeakMem(); math.Abs(got-20) > 1e-12 {
		t.Fatalf("avg peak %g", got)
	}
}

func TestResourceIndex(t *testing.T) {
	g := NewGraph()
	g.Resource("a")
	g.Resource("b")
	res := g.Run()
	if res.ResourceIndex("b") != 1 || res.ResourceIndex("zz") != -1 {
		t.Fatal("ResourceIndex broken")
	}
}
