// Package experiments regenerates every table and figure of the paper's
// evaluation (§VI): workload construction, parameter sweeps, baselines, and
// row/series printers. Each generator returns a structured Report that
// cmd/dapple-bench prints and this package's tests check.
package experiments

import (
	"context"
	"fmt"
	"strings"
)

// Report is one regenerated table or figure.
type Report struct {
	ID     string // "table5", "fig12", ...
	Title  string
	Header []string
	Rows   [][]string

	// Freeform pre-rendered sections (Gantt charts, memory curves).
	Sections []string

	// Notes record paper-vs-measured comparisons and substitutions.
	Notes []string
}

// Add appends a row of stringified cells.
func (r *Report) Add(cells ...string) { r.Rows = append(r.Rows, cells) }

// Addf appends a note.
func (r *Report) Addf(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// String renders the report as aligned text.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	if len(r.Header) > 0 {
		widths := make([]int, len(r.Header))
		for i, h := range r.Header {
			widths[i] = len(h)
		}
		for _, row := range r.Rows {
			for i, c := range row {
				if i < len(widths) && len(c) > widths[i] {
					widths[i] = len(c)
				}
			}
		}
		line := func(cells []string) {
			for i, c := range cells {
				if i < len(widths) {
					fmt.Fprintf(&b, "%-*s  ", widths[i], c)
				} else {
					b.WriteString(c)
				}
			}
			b.WriteByte('\n')
		}
		line(r.Header)
		for _, w := range widths {
			b.WriteString(strings.Repeat("-", w) + "  ")
		}
		b.WriteByte('\n')
		for _, row := range r.Rows {
			line(row)
		}
	}
	for _, s := range r.Sections {
		b.WriteByte('\n')
		b.WriteString(s)
		if !strings.HasSuffix(s, "\n") {
			b.WriteByte('\n')
		}
	}
	if len(r.Notes) > 0 {
		b.WriteString("\nnotes:\n")
		for _, n := range r.Notes {
			fmt.Fprintf(&b, "  - %s\n", n)
		}
	}
	return b.String()
}

// Options tune experiment cost.
type Options struct {
	// Quick trims sweeps (fewer batch-size points, smaller planner budgets)
	// for use inside `go test -bench`.
	Quick bool

	// Workers bounds each planner search's parallel fan-out
	// (0 = GOMAXPROCS, 1 = sequential); results are identical either way.
	Workers int

	// NoPrune runs every planner search exhaustively (no branch-and-bound,
	// no dominance memo, no slack cut). Orders of magnitude slower.
	NoPrune bool
}

// Generator produces one report. Run threads its context into every planner
// search and checks it between sweep points, so a full sweep (~30 s) is
// cancellable and deadline-bounded; a cancelled run returns a report marked
// TRUNCATED rather than one mislabeling unexplored points.
type Generator struct {
	ID   string
	Name string
	Run  func(context.Context, Options) *Report
}

// truncated reports context expiry, stamping the report with a TRUNCATED
// note the first time it fires. Generators call it at sweep boundaries and
// on planner errors so cancellation cuts the report short instead of
// recording unexplored configurations as infeasible.
func truncated(ctx context.Context, r *Report) bool {
	if ctx.Err() == nil {
		return false
	}
	note := truncatedPrefix + ctx.Err().Error()
	for _, n := range r.Notes {
		if n == note {
			return true
		}
	}
	r.Addf("%s", note)
	return true
}

const truncatedPrefix = "TRUNCATED: "

// Truncated reports whether the run was cut short by context expiry — the
// report is incomplete and should not be consumed as full regenerated data.
func (r *Report) Truncated() bool {
	for _, n := range r.Notes {
		if strings.HasPrefix(n, truncatedPrefix) {
			return true
		}
	}
	return false
}

// All returns every table and figure generator in paper order.
func All() []Generator {
	return []Generator{
		{"table1", "Traffic volume at partition boundaries", Table1},
		{"table2", "Benchmark models", Table2},
		{"table3", "Hardware configurations", Table3},
		{"table4", "Scheduling policy PB vs PA", Table4},
		{"table5", "DAPPLE planning results", Table5},
		{"table6", "DAPPLE vs GPipe throughput and memory", Table6},
		{"table7", "Strategy comparison with PipeDream", Table7},
		{"table8", "Weak scaling: maximum BERT size", Table8},
		{"fig3", "GPipe vs DAPPLE schedules and memory", Fig3},
		{"fig4", "Pipeline phase anatomy", Fig4},
		{"fig7", "Uneven vs even partitioning", Fig7},
		{"fig8", "Stage replication: split vs round-robin", Fig8},
		{"fig12", "Speedups across configs and batch sizes", Fig12},
		{"fig13", "Planner comparison with PipeDream", Fig13},
		{"fig14", "Strong scaling on config A", Fig14},
		{"ablation-placement", "Placement-policy ablation", AblationPlacement},
		{"ablation-rerank", "Simulator re-ranking ablation", AblationRerank},
		{"ablation-stages", "Stage-count budget ablation", AblationStages},
	}
}

// ByID returns the generator with the given id, or nil.
func ByID(id string) *Generator {
	for _, g := range All() {
		if g.ID == id {
			gg := g
			return &gg
		}
	}
	return nil
}
