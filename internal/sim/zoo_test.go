package sim_test

import (
	"fmt"
	"reflect"
	"testing"

	"dapple/internal/baselines"
	"dapple/internal/hardware"
	"dapple/internal/model"
	"dapple/internal/schedule"
)

// TestEngineEquivalenceZoo asserts byte-identical simulator Results from the
// event-driven engine and the pre-rewrite reference engine on every zoo
// model's schedule, for every policy and recompute setting — the CI gate for
// the engine rewrite.
func TestEngineEquivalenceZoo(t *testing.T) {
	for _, m := range model.Zoo() {
		c := hardware.ConfigB(4)
		stages := 4
		if m.NumLayers() < stages {
			stages = m.NumLayers()
			c = hardware.ConfigB(stages)
		}
		p := baselines.GPipePlan(m, c, m.DefaultGBS, stages)
		for _, pol := range []schedule.Policy{schedule.GPipe, schedule.DapplePA, schedule.DapplePB} {
			for _, rc := range []bool{false, true} {
				name := fmt.Sprintf("%s/%v/recompute=%v", m.Name, pol, rc)
				g, err := schedule.BuildGraph(p, schedule.Options{Policy: pol, Recompute: rc, M: 8, MemLimit: -1})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				want := g.RunReference()
				got := g.Run()
				if !reflect.DeepEqual(want.Spans, got.Spans) {
					t.Fatalf("%s: spans differ", name)
				}
				if want.Makespan != got.Makespan {
					t.Fatalf("%s: makespan %g vs %g", name, want.Makespan, got.Makespan)
				}
				if !reflect.DeepEqual(want.BusyTime, got.BusyTime) {
					t.Fatalf("%s: busy time differs", name)
				}
				if !reflect.DeepEqual(want.PeakMem, got.PeakMem) {
					t.Fatalf("%s: peaks %v vs %v", name, want.PeakMem, got.PeakMem)
				}
				if !reflect.DeepEqual(want.MemTrace, got.MemTrace) {
					t.Fatalf("%s: memory traces differ", name)
				}
			}
		}
	}
}
