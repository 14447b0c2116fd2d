// Package comm provides analytic communication cost models for the DAPPLE
// planner and scheduler: point-to-point transfers, split/concat stage
// boundary exchanges, ring and hierarchical all-reduce, and the
// backward-overlap ("exposed communication") model used by the data-parallel
// baselines.
//
// All times are seconds, all volumes bytes, all bandwidths bytes/second,
// matching package hardware.
package comm

import (
	"dapple/internal/hardware"
)

// TransferTime returns the time to move bytes over a link with the given
// bandwidth and latency. Zero-byte transfers are free.
func TransferTime(bytes int64, bw, latency float64) float64 {
	if bytes <= 0 {
		return 0
	}
	return float64(bytes)/bw + latency
}

// P2PTime returns the transfer time between two specific devices.
func P2PTime(c hardware.Cluster, from, to hardware.DeviceID, bytes int64) float64 {
	if from == to {
		return 0
	}
	return TransferTime(bytes, c.Bandwidth(from, to), c.Latency(from, to))
}

// splitConcatOverhead is the fixed cost of one split or concat node the
// DAPPLE runtime inserts between stages with unequal replication (§V-B2).
const splitConcatOverhead = 20e-6 // seconds

// CrossStageTime returns the time to move a stage boundary tensor of bytes
// (for one whole micro-batch) from a stage replicated on src devices to one
// replicated on dst devices. Each source replica holds a 1/len(src) slice and
// each destination replica receives a 1/len(dst) slice (split-concat
// semantics), so traffic from server X to server Y is
// bytes*frac(src on X)*frac(dst on Y). Every server funnels its cross-server
// share through a single NIC — the bottleneck the paper's Table I traffic
// analysis is about — so the exchange is bounded by the busiest NIC
// direction; intra-server slices ride NVLink. Split/concat node overhead
// applies when replication degrees differ (§V-B2).
//
// Every per-server sum runs in ascending server order, so the result is a
// pure function of its arguments, and the call does not allocate on clusters
// of up to maxStackServers servers.
func CrossStageTime(c hardware.Cluster, src, dst []hardware.DeviceID, bytes int64) float64 {
	if bytes <= 0 || len(src) == 0 || len(dst) == 0 {
		return 0
	}
	var buf [2 * maxStackServers]load
	xs := loads(c, src, buf[:0:maxStackServers])
	ys := loads(c, dst, buf[maxStackServers:maxStackServers])
	// One pass over the server pairs: a server's outgoing traffic sums over
	// destinations in ascending order, and in[k] sums what ys[k] receives
	// over sources in ascending order. A server uses its NIC when it
	// exchanges with any server but itself.
	var inBuf [maxStackServers]float64
	in := append(inBuf[:0], make([]float64, len(ys))...)
	var t float64
	for _, x := range xs {
		fx := float64(x.n) / float64(len(src))
		var out float64
		for k, y := range ys {
			v := float64(bytes) * fx * float64(y.n) / float64(len(dst))
			if x.srv == y.srv {
				t = max(t, v/c.IntraBW+c.IntraLatency)
			} else {
				out += v
				in[k] += v
			}
		}
		if len(ys) > 1 || ys[0].srv != x.srv {
			t = max(t, out/c.InterBW+c.InterLatency)
		}
	}
	for k, y := range ys {
		if len(xs) > 1 || xs[0].srv != y.srv {
			t = max(t, in[k]/c.InterBW+c.InterLatency)
		}
	}
	if len(src) != len(dst) {
		t += splitConcatOverhead
	}
	return t
}

// maxStackServers is the largest cluster whose per-server device tallies
// live on the stack; larger clusters tally on the heap.
const maxStackServers = 64

// load is the number of a device group's devices on one server.
type load struct{ srv, n int }

// loads appends the servers hosting devs to out in ascending order, each
// with its device count.
func loads(c hardware.Cluster, devs []hardware.DeviceID, out []load) []load {
	var buf [maxStackServers]int
	cnt := buf[:min(c.Servers, len(buf))]
	if c.Servers > len(buf) {
		cnt = make([]int, c.Servers)
	}
	for _, d := range devs {
		cnt[c.Server(d)]++
	}
	for srv, n := range cnt {
		if n > 0 {
			out = append(out, load{srv, n})
		}
	}
	return out
}

// AllReduceTime returns the time for a synchronous ring all-reduce of bytes
// over the device group, using the classic 2(n-1)/n volume factor. Groups
// spanning servers run hierarchically: intra-server reduce, inter-server ring
// over one representative per server, intra-server broadcast — the same
// structure NCCL uses on the paper's hierarchical configuration A.
func AllReduceTime(c hardware.Cluster, devs []hardware.DeviceID, bytes int64) float64 {
	n := len(devs)
	if n <= 1 || bytes <= 0 {
		return 0
	}
	if !c.SpansServers(devs) {
		return ringTime(n, bytes, c.IntraBW, c.IntraLatency)
	}
	var buf [maxStackServers]load
	servers := loads(c, devs, buf[:0])
	maxLocal := 0
	for _, l := range servers {
		maxLocal = max(maxLocal, l.n)
	}
	var t float64
	if maxLocal > 1 {
		// Intra-server reduce-scatter + final broadcast/all-gather.
		t += 2 * ringTime(maxLocal, bytes, c.IntraBW, c.IntraLatency) / 2
	}
	if len(servers) > 1 {
		t += ringTime(len(servers), bytes, c.InterBW, c.InterLatency)
	}
	return t
}

// ringTime is the standard ring all-reduce cost: each of n participants sends
// 2(n-1)/n of the volume with 2(n-1) latency hops.
func ringTime(n int, bytes int64, bw, lat float64) float64 {
	if n <= 1 {
		return 0
	}
	vol := 2 * float64(n-1) / float64(n) * float64(bytes)
	return vol/bw + 2*float64(n-1)*lat
}

// GradChunk is one layer's gradient contribution for the overlap model:
// Bytes of gradient become ready for communication ReadyAt seconds into the
// backward pass.
type GradChunk struct {
	Bytes   int64
	ReadyAt float64
}

// OverlapExposedTime simulates intra-iteration computation/communication
// overlap for data parallelism (the paper's "DP + overlap" baseline): layer
// gradients are all-reduced as soon as their backward completes, concurrently
// with remaining backward compute. It returns the communication time *not*
// hidden behind the backward pass of duration bwdTotal, given the all-reduce
// time per byte for this device group.
//
// The walk processes chunks in ready order on a single logical communication
// channel; exposure is whatever communication finishes after bwdTotal.
func OverlapExposedTime(chunks []GradChunk, bwdTotal, arSecPerByte float64) float64 {
	commFree := 0.0
	for _, ch := range chunks {
		start := ch.ReadyAt
		if commFree > start {
			start = commFree
		}
		commFree = start + float64(ch.Bytes)*arSecPerByte
	}
	if commFree <= bwdTotal {
		return 0
	}
	return commFree - bwdTotal
}

// ARSecPerByte returns the all-reduce seconds-per-byte for a device group,
// amortizing the latency terms over a 16 MiB fusion bucket, the granularity
// gradient fusion frameworks use.
func ARSecPerByte(c hardware.Cluster, devs []hardware.DeviceID) float64 {
	const bucket = 16 << 20
	t := AllReduceTime(c, devs, bucket)
	return t / float64(bucket)
}
