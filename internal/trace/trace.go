// Package trace renders simulator timelines: ASCII Gantt charts for terminal
// inspection (the Fig. 3/4 schedule diagrams) and Chrome trace-event JSON for
// chrome://tracing.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"dapple/internal/sim"
)

// Gantt renders the result's spans as an ASCII chart, one row per resource,
// width columns wide. Forward tasks render as their micro-batch digit,
// backward tasks as letters ('a' for micro-batch 0), communication as '-',
// all-reduce as '#', idle as '.'.
func Gantt(r *sim.Result, width int) string {
	if r.Makespan == 0 || width <= 0 {
		return ""
	}
	rows := make([][]byte, len(r.Resources))
	for i := range rows {
		rows[i] = []byte(strings.Repeat(".", width))
	}
	scale := float64(width) / r.Makespan
	for _, s := range r.Spans {
		if s.Resource == sim.NoResource || s.End <= s.Start {
			continue
		}
		lo := int(s.Start * scale)
		hi := int(s.End * scale)
		if hi <= lo {
			hi = lo + 1
		}
		if hi > width {
			hi = width
		}
		ch := glyph(s)
		for c := lo; c < hi; c++ {
			rows[s.Resource][c] = ch
		}
	}
	var b strings.Builder
	nameW := 0
	for _, n := range r.Resources {
		if len(n) > nameW {
			nameW = len(n)
		}
	}
	for i, n := range r.Resources {
		fmt.Fprintf(&b, "%-*s |%s|\n", nameW, n, rows[i])
	}
	fmt.Fprintf(&b, "%-*s  0%*s\n", nameW, "", width, fmt.Sprintf("%.1fms", r.Makespan*1e3))
	return b.String()
}

// glyph picks the Gantt character for a span.
func glyph(s sim.Span) byte {
	mb := s.Tag.MB
	switch s.Kind {
	case "fwd":
		if mb >= 0 && mb < 10 {
			return byte('0' + mb)
		}
		return 'F'
	case "bwd":
		if mb >= 0 && mb < 26 {
			return byte('a' + mb)
		}
		return 'B'
	case "comm":
		return '-'
	case "allreduce":
		return '#'
	default:
		return '+'
	}
}

// chromeEvent is one complete ("ph":"X") trace event.
type chromeEvent struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`  // microseconds
	Dur  float64 `json:"dur"` // microseconds
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
}

// WriteChrome emits the result as Chrome trace-event JSON.
func WriteChrome(w io.Writer, r *sim.Result) error {
	evs := make([]chromeEvent, 0, len(r.Spans))
	for _, s := range r.Spans {
		if s.Resource == sim.NoResource {
			continue
		}
		evs = append(evs, chromeEvent{
			Name: s.Name(),
			Cat:  s.Kind,
			Ph:   "X",
			Ts:   s.Start * 1e6,
			Dur:  (s.End - s.Start) * 1e6,
			Pid:  0,
			Tid:  s.Resource,
		})
	}
	sort.Slice(evs, func(i, j int) bool { return evs[i].Ts < evs[j].Ts })
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{"traceEvents": evs})
}

// MemCurve renders a device's memory-over-time trace as an ASCII sparkline of
// the given width, normalized to the trace's peak. It returns the rendered
// line and the peak bytes.
func MemCurve(points []sim.MemPoint, makespan float64, width int) (string, int64) {
	if len(points) == 0 || width <= 0 || makespan <= 0 {
		return "", 0
	}
	var peak int64
	for _, p := range points {
		if p.Bytes > peak {
			peak = p.Bytes
		}
	}
	if peak == 0 {
		return strings.Repeat(" ", width), 0
	}
	levels := []rune("▁▂▃▄▅▆▇█")
	out := make([]rune, width)
	cur := int64(0)
	pi := 0
	for c := 0; c < width; c++ {
		t := makespan * float64(c+1) / float64(width)
		for pi < len(points) && points[pi].Time <= t {
			cur = points[pi].Bytes
			pi++
		}
		idx := int(float64(cur) / float64(peak) * float64(len(levels)-1))
		out[c] = levels[idx]
	}
	return string(out), peak
}
