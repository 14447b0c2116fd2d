package comm

import (
	"math"
	"testing"
	"testing/quick"

	"dapple/internal/hardware"
)

func cluster() hardware.Cluster { return hardware.ConfigA(2) }

func TestTransferTime(t *testing.T) {
	if TransferTime(0, 1e9, 1e-3) != 0 {
		t.Fatal("zero bytes must be free")
	}
	got := TransferTime(1e9, 1e9, 1e-3)
	if math.Abs(got-1.001) > 1e-12 {
		t.Fatalf("TransferTime = %g", got)
	}
}

func TestP2PTime(t *testing.T) {
	c := cluster()
	if P2PTime(c, 3, 3, 1<<20) != 0 {
		t.Fatal("self transfer must be free")
	}
	intra := P2PTime(c, 0, 1, 1<<30)
	inter := P2PTime(c, 0, 8, 1<<30)
	if intra >= inter {
		t.Fatalf("intra %g should beat inter %g", intra, inter)
	}
}

func TestCrossStageNICBottleneck(t *testing.T) {
	c := cluster()
	srv0 := []hardware.DeviceID{0, 1, 2, 3, 4, 5, 6, 7}
	srv1 := []hardware.DeviceID{8, 9, 10, 11, 12, 13, 14, 15}
	bytes := int64(100 << 20)

	// 8:8 across servers: the full volume crosses one NIC.
	full := CrossStageTime(c, srv0, srv1, bytes)
	want := float64(bytes)/c.InterBW + c.InterLatency
	if math.Abs(full-want) > 1e-9 {
		t.Fatalf("8:8 cross = %g, want %g", full, want)
	}

	// Scattered stages (half of each on both servers) halve the NIC load.
	mix0 := []hardware.DeviceID{0, 1, 2, 3, 8, 9, 10, 11}
	mix1 := []hardware.DeviceID{4, 5, 6, 7, 12, 13, 14, 15}
	scattered := CrossStageTime(c, mix0, mix1, bytes)
	if scattered >= full {
		t.Fatalf("scattered %g should beat concentrated %g", scattered, full)
	}

	// Same-server stages ride NVLink.
	local := CrossStageTime(c, srv0[:4], srv0[4:], bytes)
	if local >= scattered {
		t.Fatalf("NVLink %g should beat Ethernet %g", local, scattered)
	}
}

func TestCrossStageSplitConcatOverhead(t *testing.T) {
	c := cluster()
	same := CrossStageTime(c, []hardware.DeviceID{0}, []hardware.DeviceID{8}, 1<<20)
	uneven := CrossStageTime(c, []hardware.DeviceID{0, 1}, []hardware.DeviceID{8}, 1<<20)
	if uneven <= same {
		t.Fatal("unequal replication must pay split/concat overhead")
	}
}

func TestCrossStageZero(t *testing.T) {
	c := cluster()
	if CrossStageTime(c, nil, []hardware.DeviceID{0}, 1) != 0 {
		t.Fatal("empty src must be free")
	}
	if CrossStageTime(c, []hardware.DeviceID{0}, []hardware.DeviceID{1}, 0) != 0 {
		t.Fatal("zero bytes must be free")
	}
}

func TestAllReduceTime(t *testing.T) {
	c := cluster()
	bytes := int64(1 << 30)
	if AllReduceTime(c, []hardware.DeviceID{3}, bytes) != 0 {
		t.Fatal("single device all-reduce must be free")
	}
	local := AllReduceTime(c, []hardware.DeviceID{0, 1, 2, 3, 4, 5, 6, 7}, bytes)
	cross := AllReduceTime(c, c.Devices(), bytes)
	if local >= cross {
		t.Fatalf("NVLink ring %g should beat hierarchical %g", local, cross)
	}
	// Hierarchical over 2 servers is dominated by the inter-server ring of
	// the full volume.
	interOnly := ringTime(2, bytes, c.InterBW, c.InterLatency)
	if cross < interOnly {
		t.Fatalf("hierarchical %g below inter floor %g", cross, interOnly)
	}
}

// Property: all-reduce time is monotone in volume and group size never makes
// a same-fabric ring cheaper per the 2(n-1)/n factor.
func TestAllReduceMonotoneProperty(t *testing.T) {
	c := hardware.ConfigB(16)
	f := func(n8 uint8, kb uint16) bool {
		n := int(n8%15) + 2
		bytes := int64(kb)*1024 + 1
		devs := c.Devices()[:n]
		t1 := AllReduceTime(c, devs, bytes)
		t2 := AllReduceTime(c, devs, 2*bytes)
		if t2 <= t1 {
			return false
		}
		if n < 15 {
			t3 := AllReduceTime(c, c.Devices()[:n+1], bytes)
			if t3 < t1 {
				return false // larger flat ring is never cheaper
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestOverlapExposedTime(t *testing.T) {
	// All communication fits under the backward pass: nothing exposed.
	chunks := []GradChunk{{Bytes: 1000, ReadyAt: 0.1}, {Bytes: 1000, ReadyAt: 0.2}}
	if got := OverlapExposedTime(chunks, 10.0, 1e-3); got != 0 {
		t.Fatalf("exposed = %g, want 0", got)
	}
	// Communication extends past backward: the tail is exposed.
	got := OverlapExposedTime([]GradChunk{{Bytes: 1000, ReadyAt: 1.0}}, 1.0, 1e-2)
	if math.Abs(got-10.0) > 1e-9 {
		t.Fatalf("exposed = %g, want 10", got)
	}
	// Serialization on the channel: second chunk waits for the first.
	got = OverlapExposedTime([]GradChunk{
		{Bytes: 1000, ReadyAt: 0},
		{Bytes: 1000, ReadyAt: 0},
	}, 15.0, 1e-2)
	if math.Abs(got-5.0) > 1e-9 {
		t.Fatalf("exposed = %g, want 5", got)
	}
}

func TestARSecPerByte(t *testing.T) {
	c := cluster()
	spb := ARSecPerByte(c, c.Devices())
	// Reconstructing a 1 GiB all-reduce from the per-byte rate should be
	// close to the direct model (latency amortization differs slightly).
	direct := AllReduceTime(c, c.Devices(), 1<<30)
	approx := spb * float64(int64(1)<<30)
	if math.Abs(direct-approx)/direct > 0.05 {
		t.Fatalf("per-byte rate drifts: direct %g vs approx %g", direct, approx)
	}
}

// CrossStageTime once summed per-server traffic in map order, so one
// boundary could come back one ULP apart between calls. Every sum now runs
// in ascending server order: repeated calls agree bit for bit with a
// hand-written ascending sum.
func TestCrossStageTimeDeterministic(t *testing.T) {
	c := hardware.ConfigA(4)
	// 11 devices spread 3/2/1/5 over the four servers, sending to 11 devices
	// spread 2/3/5/1.
	src := []hardware.DeviceID{0, 1, 2, 8, 9, 16, 24, 25, 26, 27, 28}
	dst := []hardware.DeviceID{3, 4, 10, 11, 12, 17, 18, 19, 20, 21, 29}
	srcCnt, dstCnt := []int{3, 2, 1, 5}, []int{2, 3, 5, 1}
	const bytes = int64(123456789)

	share := func(x, y int) float64 {
		fx := float64(srcCnt[x]) / float64(len(src))
		return float64(bytes) * fx * float64(dstCnt[y]) / float64(len(dst))
	}
	var want float64
	for x := range srcCnt {
		var out, in float64
		for y := range dstCnt {
			if y != x {
				out += share(x, y)
				in += share(y, x)
			}
		}
		want = max(want, out/c.InterBW+c.InterLatency, in/c.InterBW+c.InterLatency,
			share(x, x)/c.IntraBW+c.IntraLatency)
	}

	for i := 0; i < 10000; i++ {
		if got := CrossStageTime(c, src, dst, bytes); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("call %d: CrossStageTime = %x, want %x (ascending-server sum)",
				i, math.Float64bits(got), math.Float64bits(want))
		}
	}
}

// The planner calls CrossStageTime and AllReduceTime for every candidate it
// scores, so neither may allocate on the paper's clusters.
func TestCommAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skewed by the race detector")
	}
	for _, c := range []hardware.Cluster{hardware.ConfigA(2), hardware.ConfigB(16)} {
		devs := c.Devices()
		src, dst := devs[:5], devs[5:]
		for name, f := range map[string]func(){
			"CrossStageTime": func() { CrossStageTime(c, src, dst, 1<<20) },
			"AllReduceTime":  func() { AllReduceTime(c, dst, 1<<20) },
		} {
			if n := testing.AllocsPerRun(100, f); n != 0 {
				t.Errorf("%s on %s(%d): %v allocations per call, want 0", name, c.Name, c.Servers, n)
			}
		}
	}
}
