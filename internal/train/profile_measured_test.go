package train

import (
	"context"
	"math"
	"testing"

	"dapple/internal/hardware"
	"dapple/internal/nn"
	"dapple/internal/planner"
	"dapple/internal/strategy"
)

// TestProfileNetworkMeasuredFromSpans profiles a deliberately lopsided MLP —
// the middle dense layer carries ~8x the FLOPs of the first and ~32x the
// last — and checks the measured model (a) validates and maps 1:1 onto the
// network, (b) derives every per-layer time from the recorded calibration
// spans (median, floor-clamped), not from the synthFLOPS analytic formula,
// and (c) orders layer times consistently with the actual lopsided work.
func TestProfileNetworkMeasuredFromSpans(t *testing.T) {
	net := nn.MLP([]int{16, 256, 256, 4}, 11) // D(16,256), R, D(256,256), R, D(256,4)
	const rows, gbs = 16, 64
	mo := MeasureOptions{Warmup: 1, Iters: 5}
	mod, calTrace, err := ProfileNetworkMeasuredTrace(context.Background(), "lopsided", net, 16, rows, gbs, mo)
	if err != nil {
		t.Fatal(err)
	}
	if mod.NumLayers() != net.NumLayers() {
		t.Fatalf("measured %d layers for %d network layers", mod.NumLayers(), net.NumLayers())
	}
	if err := mod.Validate(); err != nil {
		t.Fatalf("measured model invalid: %v", err)
	}

	// Every model time must equal the median of that layer's recorded spans
	// (floor-clamped) — the "times come from spans" contract.
	for i := range mod.Layers {
		var fwd, bwd []float64
		for _, s := range calTrace.Spans {
			if s.Resource != i {
				continue
			}
			switch s.Kind {
			case "fwd":
				fwd = append(fwd, s.End-s.Start)
			case "bwd":
				bwd = append(bwd, s.End-s.Start)
			}
		}
		if len(fwd) != mo.Iters || len(bwd) != mo.Iters {
			t.Fatalf("layer %d recorded %d fwd / %d bwd spans, want %d each", i, len(fwd), len(bwd), mo.Iters)
		}
		if want := max(median(fwd), measuredTimeFloor); mod.Layers[i].FwdTime != want {
			t.Fatalf("layer %d FwdTime %g is not the span median %g", i, mod.Layers[i].FwdTime, want)
		}
		if want := max(median(bwd), measuredTimeFloor); mod.Layers[i].BwdTime != want {
			t.Fatalf("layer %d BwdTime %g is not the span median %g", i, mod.Layers[i].BwdTime, want)
		}
	}

	// The lopsided middle dense layer must dominate both directions.
	if mod.Layers[2].FwdTime <= mod.Layers[0].FwdTime || mod.Layers[2].FwdTime <= mod.Layers[4].FwdTime {
		t.Fatalf("fwd times not ordered by work: %g / %g / %g",
			mod.Layers[0].FwdTime, mod.Layers[2].FwdTime, mod.Layers[4].FwdTime)
	}
	if mod.Layers[2].BwdTime <= mod.Layers[4].BwdTime {
		t.Fatalf("bwd times not ordered by work: mid %g vs last %g",
			mod.Layers[2].BwdTime, mod.Layers[4].BwdTime)
	}

	// Byte accounting must be identical to the analytic profile: the two
	// profiles differ only in their time columns.
	analytic, err := ProfileNetwork("lopsided", net, 16, rows, gbs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range mod.Layers {
		if mod.Layers[i].OutputBytes != analytic.Layers[i].OutputBytes ||
			mod.Layers[i].StoredBytes != analytic.Layers[i].StoredBytes ||
			mod.Layers[i].ParamBytes != analytic.Layers[i].ParamBytes {
			t.Fatalf("layer %d byte accounting diverged from the analytic probe", i)
		}
	}

	// Calibration must not perturb the profiled network.
	for _, p := range net.Params() {
		for _, g := range p.G.Data {
			if g != 0 {
				t.Fatal("measured profiling left gradients in the network")
			}
		}
	}
}

// TestMeasuredProfilePlansExecute closes the calibrate→plan→execute loop:
// a plan searched on a MEASURED profile must execute on the real runtime
// with sequential-equivalent gradients, like any analytic-profile plan.
func TestMeasuredProfilePlansExecute(t *testing.T) {
	master := nn.MLP([]int{12, 24, 16, 4}, 21) // 5 layers
	const rows, m = 8, 4
	mod, err := ProfileNetworkMeasured(context.Background(), "measured-exec", master, 12, rows, rows*m, MeasureOptions{Warmup: 1, Iters: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := mod.Validate(); err != nil {
		t.Fatal(err)
	}
	s, ok := strategy.Lookup("dapple")
	if !ok {
		t.Fatal("dapple strategy missing from the table")
	}
	pr, err := s.Plan(context.Background(), mod, hardware.ConfigB(2), planner.Options{GBS: rows * m, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := pr.Plan.CompatibleWithLayers(master.NumLayers()); err != nil {
		t.Fatalf("measured plan does not map onto the network: %v", err)
	}
	micros := makeMicros(m, rows, 12, 4, 17)
	res := checkAgainstSequential(t, master, pr.Plan, micros, ExecOptions{
		Policy: pr.Policy, Recompute: pr.NeedsRecompute,
	})
	if math.IsNaN(res.Loss) {
		t.Fatal("NaN loss from measured-profile execution")
	}
}

// TestProfileNetworkMeasuredValidation exercises the error paths.
func TestProfileNetworkMeasuredValidation(t *testing.T) {
	if _, err := ProfileNetworkMeasured(context.Background(), "empty", &nn.Network{}, 4, 4, 4, MeasureOptions{}); err == nil {
		t.Fatal("expected error: empty network")
	}
	if _, err := ProfileNetworkMeasured(context.Background(), "geom", nn.MLP([]int{4, 2}, 1), 4, 0, 4, MeasureOptions{}); err == nil {
		t.Fatal("expected error: bad geometry")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ProfileNetworkMeasured(ctx, "cancelled", nn.MLP([]int{4, 2}, 1), 4, 4, 4, MeasureOptions{}); err != context.Canceled {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}
