// Package hardware models the GPU cluster topologies that DAPPLE plans
// against: servers holding one or more devices, fast intra-server
// interconnects (NVLink) and slower inter-server Ethernet.
//
// The package is a pure description; time costs derived from it live in
// package comm. All bandwidths are bytes/second and all latencies seconds so
// they compose directly with task durations in the simulator.
package hardware

import "fmt"

// DeviceID identifies a single accelerator in a cluster. Devices are numbered
// row-major: device d lives on server d/GPUsPerServer.
type DeviceID int

// GiB is one gibibyte in bytes, the unit device memory is quoted in.
const GiB = 1 << 30

// Cluster describes a homogeneous training cluster: Servers machines, each
// with GPUsPerServer devices. Interconnect performance is split into the
// intra-server fabric (NVLink when GPUsPerServer > 1) and the inter-server
// network (Ethernet in all of the paper's configurations).
type Cluster struct {
	Name          string
	Servers       int
	GPUsPerServer int

	// IntraBW/IntraLatency describe links between devices on one server.
	// They are ignored when GPUsPerServer == 1.
	IntraBW      float64 // bytes/sec
	IntraLatency float64 // seconds

	// InterBW/InterLatency describe links between devices on different
	// servers.
	InterBW      float64 // bytes/sec
	InterLatency float64 // seconds

	// DeviceMemory is the usable memory per device in bytes.
	DeviceMemory int64

	// DeviceFLOPS is the sustained compute throughput of one device in
	// FLOP/s. The model zoo stores per-layer times for a reference device;
	// this field lets experiments scale to faster/slower parts.
	DeviceFLOPS float64
}

// NumDevices returns the total device count.
func (c Cluster) NumDevices() int { return c.Servers * c.GPUsPerServer }

// Devices returns all device IDs in increasing order.
func (c Cluster) Devices() []DeviceID {
	ds := make([]DeviceID, c.NumDevices())
	for i := range ds {
		ds[i] = DeviceID(i)
	}
	return ds
}

// Server returns the index of the server hosting device d.
func (c Cluster) Server(d DeviceID) int { return int(d) / c.GPUsPerServer }

// SameServer reports whether a and b are co-located on one server.
func (c Cluster) SameServer(a, b DeviceID) bool { return c.Server(a) == c.Server(b) }

// Bandwidth returns the point-to-point bandwidth between two devices in
// bytes/sec. The bandwidth of a device to itself is +Inf conceptually; we
// return IntraBW to keep arithmetic finite (a zero-byte transfer still takes
// zero time).
func (c Cluster) Bandwidth(a, b DeviceID) float64 {
	if a == b || c.SameServer(a, b) {
		return c.IntraBW
	}
	return c.InterBW
}

// Latency returns the point-to-point latency between two devices in seconds.
func (c Cluster) Latency(a, b DeviceID) float64 {
	if a == b {
		return 0
	}
	if c.SameServer(a, b) {
		return c.IntraLatency
	}
	return c.InterLatency
}

// SpansServers reports whether the group uses more than one server.
func (c Cluster) SpansServers(devs []DeviceID) bool {
	if len(devs) == 0 {
		return false
	}
	first := c.Server(devs[0])
	for _, d := range devs[1:] {
		if c.Server(d) != first {
			return true
		}
	}
	return false
}

// Validate checks internal consistency, returning a descriptive error for
// impossible configurations.
func (c Cluster) Validate() error {
	switch {
	case c.Servers <= 0:
		return fmt.Errorf("hardware: cluster %q has %d servers", c.Name, c.Servers)
	case c.GPUsPerServer <= 0:
		return fmt.Errorf("hardware: cluster %q has %d GPUs/server", c.Name, c.GPUsPerServer)
	case c.InterBW <= 0 && c.Servers > 1:
		return fmt.Errorf("hardware: cluster %q has multiple servers but no inter-server bandwidth", c.Name)
	case c.IntraBW <= 0 && c.GPUsPerServer > 1:
		return fmt.Errorf("hardware: cluster %q has multiple GPUs/server but no intra-server bandwidth", c.Name)
	case c.DeviceMemory <= 0:
		return fmt.Errorf("hardware: cluster %q has no device memory", c.Name)
	}
	return nil
}

// String implements fmt.Stringer.
func (c Cluster) String() string {
	return fmt.Sprintf("%s: %d×%d GPUs (intra %.0f GB/s, inter %.2f GB/s, %d GiB/device)",
		c.Name, c.Servers, c.GPUsPerServer, c.IntraBW/1e9, c.InterBW/1e9, c.DeviceMemory/GiB)
}
