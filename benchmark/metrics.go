package main

import "encoding/json"

// This file is the benchmark's definition in one place: the workloads and
// why each exists, every metric with its unit and direction, and the
// regression bound of each end-to-end metric. BENCHMARK.json at the
// repository root is generated from it (`go run ./benchmark -manifest`), and
// a run fails itself if it reports a metric set other than the declared one.

// runSeconds is how long one run measures when the driver runs it.
const runSeconds = 10

// workloadWhy says, in one line, why each workload exists.
var workloadWhy = [][2]string{
	{"pipe_compute", "compute-bound 4-stage DAPPLE pipeline: tensor and nn do nearly all the work, so kernel, layer and schedule changes must show here"},
	{"pipe_gpipe_rc", "same net, plan and data under GPipe with re-computation (the paper's baseline): flood order, all-M stash and forward re-run use the executor differently"},
	{"hybrid_allreduce", "2 stages x 2 replicas with 6.3 MB of gradients and tiny GEMMs: bucketed all-reduce, vector kernels and the optimizer dominate, so comm overlap must show here"},
	{"session_tcp", "real coordinator + 2 workers over loopback TCP with every stage boundary on a socket: framing, pumps, session protocol and hand-off dominate, kernels do little"},
	{"session_recover", "goodput under churn: handshake, checkpointed steps, a worker death, re-plan, restore and close per cycle, so the control plane is most of the time"},
	{"plan_zoo", "cold Engine.Plan of the 6-model zoo on a hierarchical and a flat cluster: planner, latency model, schedule and simulator do all the work and the runtime none"},
}

// metricDef declares one metric. Bound is the share of the parent's median
// by which an end-to-end metric may worsen; per-layer metrics have none.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// exact is the bound of metrics that are counts or deterministic model
// outputs: any change of the value is a change of behaviour.
const exact = 1e-9

// endToEnd metrics are reported by every workload with tracing off.
// README.md says what each means on each workload.
var endToEnd = []metricDef{
	{"samples_per_s", "1/s", "higher", 0.20},
	{"step_ms_p50", "ms", "lower", 0.20},
	{"peak_stash_bytes", "bytes", "lower", exact},
	{"plan_s", "s", "lower", 0.25},
	// Model seconds predicted by the planner, not wall time measured here:
	// the value is identical on every run by design.
	{"planned_iter_s", "sim_s", "lower", exact},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer metrics are reported by every traced run. Per-step means carry
// the unit ms/step; a count of zero collectives legitimately reads 0 there.
var perLayer = []metricDef{
	{"tensor.gemm_nn_gflops", "GFLOP/s", "higher", 0},
	{"tensor.gemm_tn_gflops", "GFLOP/s", "higher", 0},
	{"tensor.gemm_nt_gflops", "GFLOP/s", "higher", 0},
	{"tensor.gemm_nn_512_gflops", "GFLOP/s", "higher", 0},
	{"tensor.gemm_workers_speedup", "x", "higher", 0},
	{"tensor.gemm_allocs_per_call", "count", "lower", 0},
	{"tensor.axpy_gbps", "GB/s", "higher", 0},
	{"nn.fwd_ms", "ms", "lower", 0},
	{"nn.bwd_ms", "ms", "lower", 0},
	{"nn.opt_step_ms", "ms", "lower", 0},
	{"train.seq_step_ms", "ms", "lower", 0},
	{"train.speedup_vs_seq", "x", "higher", 0},
	{"train.mfu", "ratio", "higher", 0},
	{"train.fwd_busy_ms", "ms/step", "lower", 0},
	{"train.bwd_busy_ms", "ms/step", "lower", 0},
	{"train.ar_busy_ms", "ms/step", "lower", 0},
	{"train.idle_share", "ratio", "lower", 0},
	{"train.oversubscribed", "flag", "lower", 0},
	{"schedule.bubble_analytic", "ratio", "lower", 0},
	{"sim.idle_share", "ratio", "lower", 0},
	{"train.comm_ms", "ms/step", "lower", 0},
	{"train.comm_exposed_ms", "ms/step", "lower", 0},
	{"train.overlap_eff", "ratio", "higher", 0},
	{"train.step_overhead_us", "us", "lower", 0},
	{"train.allocs_per_step", "count", "lower", 0},
	{"train.bytes_per_step", "bytes", "lower", 0},
	{"train.step_ms_tail", "ms", "lower", 0},
	{"train.step_tail_pctl", "%", "higher", 0},
	{"train.trace_overhead_pct", "%", "lower", 0},
	{"train.loss_drift", "loss", "lower", 0},
	{"train.gpipe_stash_bytes", "bytes", "lower", 0},
	{"train.stash_saving_vs_gpipe_pct", "%", "higher", 0},
	{"train.dapple_vs_gpipe_rc", "x", "higher", 0},
	{"budget.sync_wait_ms", "ms/step", "lower", 0},
	{"budget.link_wait_ms", "ms/step", "lower", 0},
	{"budget.harness_ms", "ms/step", "lower", 0},
	{"budget.gap_pct", "%", "lower", 0},
	{"transport.ring_allreduce_gbps", "GB/s", "higher", 0},
	{"transport.inproc_edge_us", "us", "lower", 0},
	{"transport.tcp_edge_mbps", "MB/s", "higher", 0},
	{"transport.tcp_rtt_us", "us", "lower", 0},
	{"transport.wire_bytes_per_step", "bytes", "lower", 0},
	{"transport.frames_per_step", "count", "lower", 0},
	{"transport.buf_misses", "count", "lower", 0},
	{"dist.step_ms_p50", "ms", "lower", 0},
	{"dist.inproc_step_ms", "ms", "lower", 0},
	{"dist.tcp_overhead_ms", "ms", "lower", 0},
	{"dist.handshake_ms", "ms", "lower", 0},
	{"dist.close_ms", "ms", "lower", 0},
	{"dist.step_ms_tail", "ms", "lower", 0},
	{"dist.step_tail_pctl", "%", "higher", 0},
	{"dist.recover_ms_p50", "ms", "lower", 0},
	{"dist.recover_ms_max", "ms", "lower", 0},
	{"checkpoint.save_ms", "ms", "lower", 0},
	{"checkpoint.encode_mbps", "MB/s", "higher", 0},
	{"checkpoint.decode_mbps", "MB/s", "higher", 0},
	{"planner.search_ms_max", "ms", "lower", 0},
	{"planner.explored", "count", "lower", 0},
	{"core.latency_ns", "ns", "lower", 0},
	{"schedule.build_us", "us", "lower", 0},
	{"sim.run_ms", "ms", "lower", 0},
	{"sim.tasks_per_s", "1/s", "higher", 0},
	{"engine.cache_hit_us", "us", "lower", 0},
	{"planner.pred_err_pct", "%", "lower", 0},
	{"sim.pred_err_pct", "%", "lower", 0},
}

// units maps every declared metric to its unit.
var units = func() map[string]string {
	m := map[string]string{}
	for _, d := range endToEnd {
		m[d.Name] = d.Unit
	}
	for _, d := range perLayer {
		m[d.Name] = d.Unit
	}
	return m
}()

// manifest renders BENCHMARK.json.
func manifest() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}
	doc.Command = []string{"bash", "benchmark/run.sh"}
	doc.Paths = []string{"benchmark"}
	doc.RunSeconds = runSeconds
	for _, w := range workloadWhy {
		doc.Workloads = append(doc.Workloads, wl{w[0], w[1]})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	return append(out, '\n'), err
}
