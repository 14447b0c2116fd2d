package planner

import (
	"fmt"
	"math"
	"testing"

	"dapple/internal/hardware"
	"dapple/internal/model"
)

// zooGolden pins one default-options plan of the model zoo: the chosen
// stages (split|replicas|devices per stage), how many candidates the search
// scored, and the bits of the simulated and analytic latencies.
var zooGolden = []struct {
	model, cluster    string
	plan              string
	explored          int
	latency, analytic uint64
}{
	{"GNMT-16", "config-A(2)", "9:1:6|7:2:7|[0 1 2 3 4 5 6];[7 8];[9 10 11 12 13 14 15];", 24412, 0x3ff0297a1c3b4904, 0x3fed533df7d35d6d},
	{"GNMT-16", "config-B(16)", "2:8:6|2:7:7|[0 1];[2 3 4 5 6 7 8];[9 10 11 12 13 14 15];", 21583, 0x3ff30fa51d4fb05c, 0x3ff1f80d6a7aaae5},
	{"BERT-48", "config-A(2)", "25:2:21|8:1:7|[0 1 2 3 4 5 6 7];[8];[9 10 11 12 13 14 15];", 8894, 0x3fef1ecd3a1ecb29, 0x3fed9222eee6c287},
	{"BERT-48", "config-B(16)", "12:12:12:12|4:4:4:4|[0 1 2 3];[4 5 6 7];[8 9 10 11];[12 13 14 15];", 110697, 0x3ff690b972fbaf32, 0x3ff5ede91189d6a1},
	{"XLNet-36", "config-A(2)", "18:2:16|8:1:7|[0 1 2 3 4 5 6 7];[8];[9 10 11 12 13 14 15];", 7380, 0x400ca435049d4e33, 0x400ca3cc2911a1ba},
	{"XLNet-36", "config-B(16)", "11:14:11|5:6:5|[0 1 2 3 4];[5 6 7 8 9 10];[11 12 13 14 15];", 10266, 0x40104f10bd8fda31, 0x401033d2092978bc},
	{"ResNet-50", "config-A(2)", "18|16|[0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15];", 1001, 0x3fd15e8e74359fbf, 0x3fd15b4797d83c34},
	{"ResNet-50", "config-B(16)", "18|16|[0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15];", 1914, 0x3fd3d65a3e955a1a, 0x3fd3d3136237f690},
	{"VGG-19", "config-A(2)", "14:5|15:1|[0 1 2 3 4 5 6 7 8 9 10 11 12 13 14];[15];", 3500, 0x4001e21c22556a8f, 0x40019730dbf757e9},
	{"VGG-19", "config-B(16)", "15:4|15:1|[0 1 2 3 4 5 6 7 8 9 10 11 12 13 14];[15];", 436, 0x400260843f4b6ee5, 0x40023d67114f2268},
	{"AmoebaNet-36", "config-A(2)", "20:16|8:8|[0 1 2 3 4 5 6 7];[8 9 10 11 12 13 14 15];", 13173, 0x402829070d54c1ce, 0x40276f8bde092964},
	{"AmoebaNet-36", "config-B(16)", "24:6:6|10:3:3|[0 1 2 3 4 5 6 7 8 9];[10 11 12];[13 14 15];", 12799, 0x4028f66db6cfa71d, 0x4028e72ee2638613},
}

// The planner's exactness proof: every zoo model on the hierarchical and
// the flat cluster, with default options, picks the pinned plan after
// scoring the pinned number of candidates, with latencies identical to the
// bit. A change to the search that claims to move no float must leave this
// table untouched; one that moves them on purpose updates it and says why.
func TestPlanZooGolden(t *testing.T) {
	i := 0
	for _, m := range model.Zoo() {
		for _, c := range []hardware.Cluster{hardware.ConfigA(2), hardware.ConfigB(16)} {
			want := zooGolden[i]
			i++
			name := fmt.Sprintf("%s on %s(%d)", m.Name, c.Name, c.Servers)
			if got := fmt.Sprintf("%s(%d)", c.Name, c.Servers); m.Name != want.model || got != want.cluster {
				t.Fatalf("row %d pins %s on %s, zoo order gives %s", i-1, want.model, want.cluster, name)
			}
			r, err := Plan(m, c, Options{})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			plan := r.Plan.SplitString() + "|" + r.Plan.ReplicaString() + "|"
			for _, st := range r.Plan.Stages {
				plan += fmt.Sprintf("%v;", st.Devices)
			}
			if plan != want.plan || r.Explored != want.explored {
				t.Errorf("%s: plan %s explored %d, want %s explored %d", name, plan, r.Explored, want.plan, want.explored)
			}
			checkBits(t, name+" latency", r.Latency, want.latency)
			checkBits(t, name+" analytic", r.Analytic, want.analytic)
		}
	}
	if i != len(zooGolden) {
		t.Fatalf("zoo has %d pairs, table pins %d", i, len(zooGolden))
	}
}

// checkBits compares a latency with its pinned bits: exactly on builds
// without fused multiply-add, to 1e-12 relative elsewhere.
func checkBits(t *testing.T, what string, got float64, want uint64) {
	t.Helper()
	w := math.Float64frombits(want)
	if exactFloats && math.Float64bits(got) != want {
		t.Errorf("%s = %v (%#x), want %v (%#x)", what, got, math.Float64bits(got), w, want)
	} else if math.Abs(got-w) > 1e-12*math.Abs(w) {
		t.Errorf("%s = %v, want %v within 1e-12", what, got, w)
	}
}
