package schedule

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"dapple/internal/core"
	"dapple/internal/hardware"
	"dapple/internal/model"
	"dapple/internal/sim"
)

// evenPlan splits GNMT-16 into s equal stages on config-A(2), each stage
// replicated over 16/s devices, so the plans of one test differ in stage
// count, replication and server spans.
func evenPlan(s int) *core.Plan {
	m := model.GNMT16()
	c := hardware.ConfigA(2)
	stages := make([]core.Stage, s)
	per, r := m.NumLayers()/s, c.NumDevices()/s
	for i := range stages {
		stages[i] = core.Stage{Lo: i * per, Hi: (i + 1) * per}
		for d := 0; d < r; d++ {
			stages[i].Devices = append(stages[i].Devices, hardware.DeviceID(i*r+d))
		}
	}
	return &core.Plan{Model: m, Cluster: c, Stages: stages, GBS: m.DefaultGBS, MicroBatch: core.ChooseMicroBatch(m, m.DefaultGBS)}
}

// copyResult deep-copies r, so a later comparison proves that nothing r
// holds was overwritten in the meantime.
func copyResult(r *Result) *Result {
	c := *r
	c.PerStage = append([]StageStats(nil), r.PerStage...)
	s := *r.Sim
	s.Spans = append([]sim.Span(nil), r.Sim.Spans...)
	s.Resources = append([]string(nil), r.Sim.Resources...)
	s.BusyTime = append([]float64(nil), r.Sim.BusyTime...)
	s.PeakMem = append([]int64(nil), r.Sim.PeakMem...)
	s.MemTrace = make([][]sim.MemPoint, len(r.Sim.MemTrace))
	for i, tr := range r.Sim.MemTrace {
		s.MemTrace[i] = append([]sim.MemPoint(nil), tr...)
	}
	c.Sim = &s
	return &c
}

// drainBuilders empties the free list.
func drainBuilders() {
	for len(builders) > 0 {
		<-builders
	}
}

// TestBuilderReuseMatchesRun rebinds one builder across plans of 1, 4, 2 and
// 8 stages, with the micro-batch count going up and down and re-computation
// on and off: every Result must equal a fresh builder's, and a Result taken
// before the reuse must be left intact by it. Then one builder goes through
// the free list from a large plan to a smaller one and back.
func TestBuilderReuseMatchesRun(t *testing.T) {
	b := &builder{g: sim.NewGraph()}
	var first, firstCopy *Result
	for _, s := range []int{1, 4, 2, 8, 4, 1} {
		p := evenPlan(s)
		for k, tc := range []struct {
			m  int
			rc bool
		}{{8, false}, {24, true}, {3, false}, {12, true}} {
			opts := Options{Policy: Policy((s + k) % 3), Recompute: tc.rc, M: tc.m}
			got, err := runBuilder(context.Background(), b.bind(p), opts, true)
			if err != nil {
				t.Fatal(err)
			}
			want, err := runBuilder(context.Background(), newBuilder(p), opts, true)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%d stages, %+v: reused builder's result differs from a fresh one's", s, opts)
			}
			if first == nil {
				first, firstCopy = got, copyResult(got)
			}
		}
	}
	if !reflect.DeepEqual(first, firstCopy) {
		t.Fatal("a later run overwrote an earlier run's result")
	}

	drainBuilders()
	var listed *builder
	for _, tc := range []struct{ s, m int }{{8, 130}, {2, 5}, {8, 130}} {
		p := evenPlan(tc.s)
		opts := Options{Policy: DapplePB, Recompute: tc.s == 2, M: tc.m}
		got, err := Run(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := runBuilder(context.Background(), newBuilder(p), opts, true)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%d stages, %+v: the free list's builder's result differs from a fresh one's", tc.s, opts)
		}
		if n := len(builders); n != 1 {
			t.Fatalf("free list holds %d builders after a run, want 1", n)
		}
		b := <-builders
		if listed != nil && b != listed {
			t.Fatal("the free list handed back a different builder")
		}
		listed = b
		builders <- b
	}
}

// withoutTimeline returns r as Score reports it: no spans, no memory traces.
func withoutTimeline(r *Result) *Result {
	c := *r
	s := *r.Sim
	s.Spans, s.MemTrace = nil, nil
	c.Sim = &s
	return &c
}

// TestConcurrentRunsMatchSequential runs plans of every shape from several
// goroutines at once, starting from an empty free list, so builders are
// shared the way finalist re-ranking shares them; each result must equal the
// same run made alone, and each Score the same run without its timeline.
func TestConcurrentRunsMatchSequential(t *testing.T) {
	type job struct {
		p    *core.Plan
		opts Options
	}
	var jobs []job
	for _, s := range []int{1, 2, 4, 8} {
		for _, m := range []int{5, 40, 130} {
			jobs = append(jobs, job{evenPlan(s), Options{Policy: Policy(m % 3), Recompute: s%2 == 0, M: m}})
		}
	}
	want := make([]*Result, len(jobs))
	for i, j := range jobs {
		want[i] = MustRun(j.p, j.opts)
	}
	drainBuilders()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range jobs {
				i := (k + 3*w) % len(jobs)
				got, err := Run(jobs[i].p, jobs[i].opts)
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(got, want[i]) {
					t.Errorf("worker %d, job %d: concurrent result differs from the sequential one", w, i)
				}
				scored, err := Score(context.Background(), jobs[i].p, jobs[i].opts)
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(scored, withoutTimeline(want[i])) {
					t.Errorf("worker %d, job %d: concurrent Score differs from the sequential run", w, i)
				}
			}
		}()
	}
	wg.Wait()
}

// TestSpanAndResourceNames pins the names builds label spans and resources
// with to the fmt.Sprintf formats they had before tags replaced them.
func TestSpanAndResourceNames(t *testing.T) {
	for _, sm := range [][2]int{{3, 7}, {2, 200}, {17, 20}, {9, 300}} {
		s, m := sm[0], sm[1]
		var want []string
		for i := 0; i < s; i++ {
			want = append(want, fmt.Sprintf("stage%d", i))
			if i < s-1 {
				want = append(want, fmt.Sprintf("link%d.fwd", i), fmt.Sprintf("link%d.bwd", i))
			}
			st := int32(i)
			init, ar := sim.Tag{Kind: sim.Init, Stage: st}, sim.Tag{Kind: sim.AllReduce, Stage: st}
			if init.Name() != fmt.Sprintf("init.s%d", i) || ar.Name() != fmt.Sprintf("AR.s%d", i) {
				t.Fatalf("stage %d: init %q, all-reduce %q", i, init.Name(), ar.Name())
			}
			for k, format := range []string{"F%d.s%d", "B%d.s%d", "CF%d.s%d", "CB%d.s%d"} {
				kind := []sim.Kind{sim.Fwd, sim.Bwd, sim.CommF, sim.CommB}[k]
				for mb := 0; mb < m; mb++ {
					tag := sim.Tag{Kind: kind, Stage: st, MB: int32(mb)}
					if got, want := tag.Name(), fmt.Sprintf(format, mb, i); got != want {
						t.Fatalf("task name %q, want %q", got, want)
					}
				}
			}
		}
		var got []string
		for k := 0; k < 3*s-2; k++ {
			got = append(got, resourceName(k))
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%d stages: resources %q, want %q", s, got, want)
		}
	}
}
