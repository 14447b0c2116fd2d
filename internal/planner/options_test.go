package planner

import (
	"math"
	"testing"

	"dapple/internal/core"
	"dapple/internal/hardware"
	"dapple/internal/model"
	"dapple/internal/schedule"
)

// TestRecommendPolicy: communication-heavy plans get the deeper PB warmup.
func TestRecommendPolicy(t *testing.T) {
	twoStage := func() *core.Plan {
		m := model.Synthetic(8, 1e-3, 1<<20, 256<<20, 1<<20)
		p := &core.Plan{
			Model: m, Cluster: hardware.ConfigB(2), GBS: 8,
			Stages: []core.Stage{
				{Lo: 0, Hi: 4, Devices: []hardware.DeviceID{0}},
				{Lo: 4, Hi: 8, Devices: []hardware.DeviceID{1}},
			},
		}
		p.MicroBatch = core.ChooseMicroBatch(m, p.GBS)
		return p
	}
	light := twoStage() // 1 MiB boundaries vs ms-scale compute
	if got := RecommendPolicy(light); got != schedule.DapplePA {
		t.Fatalf("compute-bound plan recommended %v", got)
	}
	heavy := twoStage()
	for i := range heavy.Model.Layers {
		heavy.Model.Layers[i].OutputBytes = 1 << 30
	}
	if got := RecommendPolicy(heavy); got != schedule.DapplePB {
		t.Fatalf("communication-bound plan recommended %v", got)
	}
}

// TestNormalize: zero and NaN knobs collapse to the canonical defaults, so
// map keys built from Options stay well-behaved; set values pass through.
func TestNormalize(t *testing.T) {
	got := Options{PruneSlack: math.NaN()}.Normalize(64)
	want := Options{GBS: 64, MaxStages: DefaultMaxStages, PruneSlack: DefaultPruneSlack,
		Finalists: DefaultFinalists, Workers: DefaultWorkers()}
	if got != want {
		t.Fatalf("Normalize = %+v, want %+v", got, want)
	}
	set := Options{GBS: 8, MaxStages: 2, PruneSlack: 1.1, Finalists: 3, Workers: 5, NoPrune: true}
	if got := set.Normalize(64); got != set {
		t.Fatalf("Normalize changed explicit options: %+v", got)
	}
}
