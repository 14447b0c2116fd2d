// Command benchmark is this repository's one benchmark: six named workloads
// driven closed-loop from a single goroutine, end-to-end metrics measured
// with tracing off, and a separate traced run that times the calls into each
// layer from outside. See README.md beside this file and BENCHMARK.json at
// the repository root.
//
//	go run ./benchmark -workload pipe_compute -seed 1 -seconds 10 -trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; everything before it is the
// human-readable report.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"dapple/internal/hostinfo"
)

// gitSHA is stamped by run.sh (-ldflags -X); `go run` falls back to the
// toolchain's VCS stamp.
var gitSHA = "unknown"

// metric is one reported number. N is how many samples stand behind it (0
// for exact counts and derived ratios).
type metric struct {
	Value float64
	Unit  string
	N     int
}

// run carries one benchmark run's settings and accumulates its outcome.
type run struct {
	workload string
	seed     int64
	seconds  float64
	outDir   string
	tr       *tracer // nil with tracing off

	attempted, failed int
	failures          []string
	metrics           map[string]metric
}

// op counts one attempted operation (or correctness check) and, when err is
// non-nil, one failure.
func (r *run) op(err error) bool {
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.failures) < 10 {
			r.failures = append(r.failures, err.Error())
		}
	}
	return err == nil
}

// set records a declared metric (see metrics.go) over n samples. The first
// value wins: in a traced run the workload's own section reports before the
// fixed-fixture sections that fill the gaps.
func (r *run) set(name string, value float64, n int) {
	unit, ok := units[name]
	if !ok {
		panic("benchmark: metric " + name + " is not declared in metrics.go")
	}
	if !r.has(name) {
		r.metrics[name] = metric{value, unit, n}
	}
}

// has reports whether name has been measured already.
func (r *run) has(name string) bool {
	_, ok := r.metrics[name]
	return ok
}

func revision() string {
	if gitSHA != "unknown" {
		return gitSHA
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && len(s.Value) >= 12 {
				return s.Value[:12]
			}
		}
	}
	return gitSHA
}

// provenance is the header every output carries.
func (r *run) provenance(traced bool) map[string]any {
	return map[string]any{
		"git_sha":    revision(),
		"host":       hostinfo.Summary(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"workload":   r.workload,
		"seed":       r.seed,
		"seconds":    r.seconds,
		"traced":     traced,
		"time":       time.Now().UTC().Format(time.RFC3339),
	}
}

func main() {
	var (
		workload = flag.String("workload", "", "one of "+fmt.Sprint(workloadNames()))
		seed     = flag.Int64("seed", 1, "seed of network init, micro-batch data and plan_zoo's pair order")
		seconds  = flag.Float64("seconds", 10, "how long the timed phase measures")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
		outDir   = flag.String("out", "benchmark/out", "directory for the Chrome trace, result files and scratch state")
		printDoc = flag.Bool("manifest", false, "print BENCHMARK.json as generated from metrics.go and exit")
	)
	flag.Parse()
	if *printDoc {
		doc, err := manifest()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Stdout.Write(doc)
		return
	}
	body, ok := workloads[*workload]
	if !ok || flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: benchmark -workload {%v} [-seed n] [-seconds s] [-trace 0|1] [-out dir]\n", workloadNames())
		os.Exit(2)
	}
	// The benchmark's definition: at most four cores, so a result from a
	// large host stays comparable with one from a small one.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	r := &run{workload: *workload, seed: *seed, seconds: *seconds, outDir: *outDir, metrics: map[string]metric{}}
	traced := *trace == 1
	prov := r.provenance(traced)
	fmt.Printf("# dapple benchmark  workload=%s seed=%d seconds=%g trace=%d\n# git %s  %s\n",
		r.workload, r.seed, r.seconds, *trace, prov["git_sha"], prov["host"])

	var err error
	if traced {
		r.tr = newTracer()
		err = r.traced(body)
		if werr := r.tr.writeChrome(fmt.Sprintf("%s/trace-%s.json", r.outDir, r.workload), prov); err == nil {
			err = werr
		}
	} else {
		err = body.endToEnd(r)
	}
	if err != nil {
		r.op(err)
	}
	// A run reports exactly the declared metrics of its mode.
	declared := endToEnd
	if traced {
		declared = perLayer
	}
	for _, d := range declared {
		if !r.has(d.Name) && r.failed == 0 {
			r.op(fmt.Errorf("declared metric %s was not measured", d.Name))
		}
	}
	if len(r.metrics) > len(declared) && r.failed == 0 {
		r.op(fmt.Errorf("%d metrics measured, %d declared for this mode", len(r.metrics), len(declared)))
	}
	r.report(prov, traced)
}

// report prints every metric by name with its unit and sample count, writes
// the same with the provenance header to a result file, and ends standard
// output with the one-line JSON result.
func (r *run) report(prov map[string]any, traced bool) {
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Println()
	for _, n := range names {
		m := r.metrics[n]
		fmt.Printf("%-34s %18.6f %-8s n=%d\n", n, m.Value, m.Unit, m.N)
	}
	for _, f := range r.failures {
		fmt.Printf("FAILED: %s\n", f)
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	type sampled struct {
		value
		N int `json:"n"`
	}
	out := map[string]value{}
	full := map[string]sampled{}
	for n, m := range r.metrics {
		out[n] = value{m.Value, m.Unit}
		full[n] = sampled{out[n], m.N}
	}
	result := map[string]any{
		"correct": r.failed == 0, "attempted": max(r.attempted, 1), "failed": r.failed, "metrics": out,
	}
	mode := 0
	if traced {
		mode = 1
	}
	file, _ := json.MarshalIndent(map[string]any{
		"provenance": prov, "correct": r.failed == 0, "attempted": r.attempted, "failed": r.failed,
		"failures": r.failures, "metrics": full,
	}, "", " ")
	if err := os.WriteFile(fmt.Sprintf("%s/result-%s-trace%d.json", r.outDir, r.workload, mode), file, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
	}
	line, err := json.Marshal(result)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("%s\n", line)
}
