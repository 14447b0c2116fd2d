package hardware

import (
	"testing"
	"testing/quick"
)

func TestConfigShapes(t *testing.T) {
	cases := []struct {
		c         Cluster
		devices   int
		perServer int
	}{
		{ConfigA(2), 16, 8},
		{ConfigB(16), 16, 1},
		{ConfigC(16), 16, 1},
		{ConfigA(4), 32, 8},
	}
	for _, tc := range cases {
		if err := tc.c.Validate(); err != nil {
			t.Errorf("%s: %v", tc.c.Name, err)
		}
		if tc.c.NumDevices() != tc.devices {
			t.Errorf("%s: %d devices, want %d", tc.c.Name, tc.c.NumDevices(), tc.devices)
		}
		if tc.c.GPUsPerServer != tc.perServer {
			t.Errorf("%s: %d GPUs/server, want %d", tc.c.Name, tc.c.GPUsPerServer, tc.perServer)
		}
	}
}

func TestConfigRelativeBandwidth(t *testing.T) {
	a, b, c := ConfigA(2), ConfigB(16), ConfigC(16)
	if a.IntraBW <= a.InterBW {
		t.Fatal("NVLink must beat Ethernet")
	}
	if b.InterBW <= c.InterBW {
		t.Fatal("25 Gbps must beat 10 Gbps")
	}
	if b.InterBW != a.InterBW {
		t.Fatal("configs A and B share the 25 Gbps network")
	}
}

func TestServerAssignment(t *testing.T) {
	c := ConfigA(2)
	if c.Server(0) != 0 || c.Server(7) != 0 || c.Server(8) != 1 || c.Server(15) != 1 {
		t.Fatal("row-major server assignment broken")
	}
	if !c.SameServer(0, 7) || c.SameServer(7, 8) {
		t.Fatal("SameServer broken")
	}
}

func TestBandwidthLatency(t *testing.T) {
	c := ConfigA(2)
	if c.Bandwidth(0, 1) != c.IntraBW {
		t.Fatal("intra-server bandwidth")
	}
	if c.Bandwidth(0, 8) != c.InterBW {
		t.Fatal("inter-server bandwidth")
	}
	if c.Latency(3, 3) != 0 {
		t.Fatal("self latency must be zero")
	}
	if c.Latency(0, 8) <= c.Latency(0, 1) {
		t.Fatal("inter latency must exceed intra")
	}
}

func TestGroupProperties(t *testing.T) {
	c := ConfigA(2)
	local := []DeviceID{0, 1, 2}
	cross := []DeviceID{0, 8}
	if c.SpansServers(local) {
		t.Fatal("local group spans servers")
	}
	if !c.SpansServers(cross) {
		t.Fatal("cross group does not span servers")
	}
}

func TestValidateRejectsBadClusters(t *testing.T) {
	bad := []Cluster{
		{Name: "no-servers", GPUsPerServer: 1, DeviceMemory: 1},
		{Name: "no-gpus", Servers: 1, DeviceMemory: 1},
		{Name: "no-inter", Servers: 2, GPUsPerServer: 1, DeviceMemory: 1},
		{Name: "no-intra", Servers: 1, GPUsPerServer: 2, InterBW: 1, DeviceMemory: 1},
		{Name: "no-mem", Servers: 1, GPUsPerServer: 1, InterBW: 1, IntraBW: 1},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("%s: expected validation error", c.Name)
		}
	}
}

// Property: every device belongs to exactly one server and server indices
// are within range.
func TestDeviceServerProperty(t *testing.T) {
	f := func(servers8, gps8 uint8) bool {
		servers := int(servers8%6) + 1
		gps := int(gps8%8) + 1
		c := Cluster{Name: "t", Servers: servers, GPUsPerServer: gps,
			IntraBW: 1, InterBW: 1, DeviceMemory: 1}
		counts := make([]int, servers)
		for _, d := range c.Devices() {
			s := c.Server(d)
			if s < 0 || s >= servers {
				return false
			}
			counts[s]++
		}
		for _, n := range counts {
			if n != gps {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStandardConfigs(t *testing.T) {
	m := StandardConfigs()
	for _, k := range []string{"A", "B", "C"} {
		c, ok := m[k]
		if !ok {
			t.Fatalf("missing config %s", k)
		}
		if c.NumDevices() != 16 {
			t.Fatalf("config %s has %d devices, want 16", k, c.NumDevices())
		}
	}
}
