package schedule_test

import (
	"reflect"
	"testing"

	"dapple/internal/baselines"
	"dapple/internal/hardware"
	"dapple/internal/model"
	"dapple/internal/schedule"
)

// TestSweeperMatchesRun asserts that a Sweeper reusing one builder across a
// Policy × M × recompute sweep returns Results identical to fresh Run calls.
func TestSweeperMatchesRun(t *testing.T) {
	m := model.GNMT16()
	p := baselines.GPipePlan(m, hardware.ConfigB(4), m.DefaultGBS, 4)
	sw := schedule.MustSweeper(p)
	for _, pol := range []schedule.Policy{schedule.GPipe, schedule.DapplePA, schedule.DapplePB} {
		for _, mc := range []int{12, 4, 8} { // deliberately non-monotone: shrinks then regrows buffers
			for _, rc := range []bool{false, true} {
				opts := schedule.Options{Policy: pol, Recompute: rc, M: mc}
				got, err := sw.Run(opts)
				if err != nil {
					t.Fatal(err)
				}
				want := schedule.MustRun(p, opts)
				if got.IterTime != want.IterTime || got.AvgPeakMem != want.AvgPeakMem ||
					got.MaxPeakMem != want.MaxPeakMem || got.OOM != want.OOM ||
					got.BubbleFraction != want.BubbleFraction || got.Samples != want.Samples {
					t.Fatalf("%v M=%d rc=%v: sweeper %+v vs fresh %+v", pol, mc, rc, got, want)
				}
				if !reflect.DeepEqual(got.PerStage, want.PerStage) {
					t.Fatalf("%v M=%d rc=%v: per-stage stats differ", pol, mc, rc)
				}
				if !reflect.DeepEqual(got.Sim.Spans, want.Sim.Spans) {
					t.Fatalf("%v M=%d rc=%v: spans differ", pol, mc, rc)
				}
			}
		}
	}
}
