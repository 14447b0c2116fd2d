package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"time"

	"dapple/internal/sim"
	"dapple/internal/train"
)

// span is one harness-side interval around a call into a layer's public
// function. Name starts with the layer's package name ("train.Executor.Step");
// Parent is the index of the span that caused it (-1 for a root); spans of
// one benchmark operation share Op; Lane separates concurrent children (one
// lane per device) in the Chrome view.
type span struct {
	Name       string
	Op, Parent int
	Lane       int
	Start, End float64 // seconds since the tracer started
}

// tracer keeps spans in memory until the run ends. It is driven from the
// single benchmark goroutine, so it needs no locking. A nil tracer records
// nothing, which is how tracing is switched off.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() float64 { return time.Since(t.t0).Seconds() }

// begin opens a span and returns its index; end closes it.
func (t *tracer) begin(name string, op, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: t.now()})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t != nil {
		t.spans[id].End = t.now()
	}
}

// rename relabels an open or closed span once its outcome is known.
func (t *tracer) rename(id int, name string) {
	if t != nil {
		t.spans[id].Name = name
	}
}

// call wraps one public call in a root span.
func (t *tracer) call(name string, op int, fn func()) {
	id := t.begin(name, op, -1)
	fn()
	t.end(id)
}

// importExec hangs the executor's own device spans (ExecResult.Trace, an
// already-exported result) under the harness span of the Step that produced
// them. The executor's clock restarts inside Step, so the device spans are
// right-aligned to the parent's end by the step's own wall time.
func (t *tracer) importExec(parent int, res *train.ExecResult) {
	if t == nil || res == nil || res.Trace == nil {
		return
	}
	p := t.spans[parent]
	base := p.End - res.WallTime
	for _, s := range res.Trace.Spans {
		t.spans = append(t.spans, span{
			Name: execSpanName(s.Kind), Op: p.Op, Parent: parent, Lane: s.Resource + 1,
			Start: base + s.Start, End: base + s.End,
		})
	}
}

// execSpanName maps an executor span kind to the layer whose code runs in
// it: forward and backward spans are nn (and, inside it, tensor) compute;
// the all-reduce span is train's gradient sync plus the optimizer step.
func execSpanName(kind string) string {
	switch kind {
	case "fwd":
		return "nn.stage_forward"
	case "bwd":
		return "nn.stage_backward"
	default:
		return "train.grad_sync"
	}
}

// layerOf is the package-name prefix of a span name.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its direct children cover (children may overlap each other, as
// device lanes do; the union is what counts).
func selfTimes(spans []span) []float64 {
	kids := make(map[int][][2]float64)
	for _, s := range spans {
		if s.Parent >= 0 {
			p := spans[s.Parent]
			lo, hi := max(s.Start, p.Start), min(s.End, p.End)
			if hi > lo {
				kids[s.Parent] = append(kids[s.Parent], [2]float64{lo, hi})
			}
		}
	}
	out := make([]float64, len(spans))
	for i, s := range spans {
		iv := kids[i]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, edge := 0.0, s.Start
		for _, k := range iv {
			if k[1] > edge {
				covered += k[1] - max(k[0], edge)
				edge = k[1]
			}
		}
		out[i] = s.End - s.Start - covered
	}
	return out
}

// layerTime is one layer's summed self time.
type layerTime struct {
	Layer   string
	Seconds float64
}

// layerSelf sums self time by layer over the spans from index `from` on
// whose root span is named root, highest first: the ranking that names the
// critical layer of an operation.
func layerSelf(spans []span, from int, root string) []layerTime {
	self := selfTimes(spans)
	sums := map[string]float64{}
	for i := from; i < len(spans); i++ {
		top := spans[i]
		for top.Parent >= 0 {
			top = spans[top.Parent]
		}
		if top.Name == root {
			sums[layerOf(spans[i].Name)] += self[i]
		}
	}
	out := make([]layerTime, 0, len(sums))
	for l, v := range sums {
		out = append(out, layerTime{l, v})
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Seconds != out[b].Seconds {
			return out[a].Seconds > out[b].Seconds
		}
		return out[a].Layer < out[b].Layer
	})
	return out
}

// writeChrome writes the spans in the Chrome trace-event format (open with
// chrome://tracing or https://ui.perfetto.dev), provenance under otherData.
func (t *tracer) writeChrome(path string, prov map[string]any) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	evs := make([]event, len(t.spans))
	for i, s := range t.spans {
		evs[i] = event{
			Name: s.Name, Cat: layerOf(s.Name), Ph: "X",
			Ts: s.Start * 1e6, Dur: (s.End - s.Start) * 1e6, Pid: 1, Tid: s.Lane,
			Args: map[string]int{"id": i, "parent": s.Parent, "op": s.Op},
		}
	}
	buf, err := json.Marshal(map[string]any{"traceEvents": evs, "otherData": prov})
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// budgetRow is one device's share of an average traced step, in seconds.
// The columns are measured independently of the wall they are compared
// with: busy columns are executor span durations, SyncWait is the executor's
// own exposed-synchronisation clock (it elapses inside the all-reduce span,
// so AllReduce excludes it), LinkWait is every gap on the device's lane up
// to the trace's makespan (waiting for an upstream activation, a downstream
// gradient, or for slower stages to finish), and Harness is the harness wall
// minus the executor's own wall. What no column covers — the executor's
// join and result assembly after the last span — is the residual.
type budgetRow struct {
	Device                                                string
	Fwd, Bwd, AllReduce, SyncWait, LinkWait, Harness, Sum float64
}

// budget averages the per-device time budget over traced steps. walls[i] is
// the harness-measured wall of the step that returned results[i].
func budget(results []*train.ExecResult, walls []float64) (rows []budgetRow, wall float64) {
	if len(results) == 0 {
		return nil, 0
	}
	n := float64(len(results))
	rows = make([]budgetRow, len(results[0].Trace.Resources))
	for i, name := range results[0].Trace.Resources {
		rows[i].Device = name
	}
	for k, res := range results {
		wall += walls[k] / n
		busy := make([]float64, len(rows))
		for _, s := range res.Trace.Spans {
			r, d := &rows[s.Resource], s.End-s.Start
			busy[s.Resource] += d
			switch s.Kind {
			case "fwd":
				r.Fwd += d / n
			case "bwd":
				r.Bwd += d / n
			default:
				wait := min(d, res.CommWaitSeconds[stageOf(res.Trace, s.Resource)])
				r.SyncWait += wait / n
				r.AllReduce += (d - wait) / n
			}
		}
		for i := range rows {
			rows[i].LinkWait += (res.Trace.Makespan - busy[i]) / n
			rows[i].Harness += (walls[k] - res.WallTime) / n
		}
	}
	for i := range rows {
		r := &rows[i]
		r.Sum = r.Fwd + r.Bwd + r.AllReduce + r.SyncWait + r.LinkWait + r.Harness
	}
	return rows, wall
}

// stageOf parses the stage index out of a device resource name "s<i>.d<j>".
func stageOf(tr *sim.Result, res int) int {
	var stage, dev int
	if _, err := fmt.Sscanf(tr.Resources[res], "s%d.d%d", &stage, &dev); err != nil {
		return 0
	}
	return stage
}

// budgetGap is the largest relative distance between a device's column sum
// and the step wall; the acceptance limit is 0.10.
func budgetGap(rows []budgetRow, wall float64) float64 {
	gap := 0.0
	for _, r := range rows {
		gap = max(gap, math.Abs(r.Sum-wall)/wall)
	}
	return gap
}

// printBudget renders the table in milliseconds.
func printBudget(name string, rows []budgetRow, wall float64, critical []layerTime) {
	fmt.Printf("\nstep time budget, %s (ms per step, mean of traced steps; wall %.3f)\n", name, ms(wall))
	fmt.Printf("  %-8s %9s %9s %9s %9s %9s %9s %9s %7s\n",
		"device", "fwd", "bwd", "allreduce", "sync_wait", "link_wait", "harness", "sum", "of wall")
	for _, r := range rows {
		fmt.Printf("  %-8s %9.3f %9.3f %9.3f %9.3f %9.3f %9.3f %9.3f %6.1f%%\n", r.Device,
			ms(r.Fwd), ms(r.Bwd), ms(r.AllReduce), ms(r.SyncWait), ms(r.LinkWait), ms(r.Harness),
			ms(r.Sum), 100*r.Sum/wall)
	}
	fmt.Printf("  self-time ranking by layer:")
	for _, lt := range critical {
		fmt.Printf("  %s %.3f ms", lt.Layer, ms(lt.Seconds))
	}
	if len(critical) > 0 {
		fmt.Printf("  -> critical layer: %s", critical[0].Layer)
	}
	fmt.Println()
}
