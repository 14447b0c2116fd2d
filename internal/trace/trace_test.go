package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"dapple/internal/sim"
)

// tinyResult builds a 2-resource run with one task each.
func tinyResult() *sim.Result {
	g := sim.NewGraph()
	r0, r1 := g.Resource("stage0"), g.Resource("stage1")
	a := g.Add(sim.Task{Tag: sim.Tag{Kind: sim.Fwd}, Resource: r0, Duration: 1})
	b := g.Add(sim.Task{Tag: sim.Tag{Kind: sim.Bwd, Stage: 1}, Resource: r1, Duration: 2})
	g.AddDep(b, a)
	g.Add(sim.Task{Tag: sim.Tag{Kind: sim.CommF}, Resource: r0, Duration: 0.5})
	return g.Run()
}

func TestGanttRendersAllResources(t *testing.T) {
	res := tinyResult()
	out := Gantt(res, 60)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 { // 2 resources + axis
		t.Fatalf("%d lines:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "0") {
		t.Fatalf("forward glyph missing: %q", lines[0])
	}
	if !strings.Contains(lines[1], "a") {
		t.Fatalf("backward glyph missing: %q", lines[1])
	}
	if !strings.Contains(lines[0], "-") {
		t.Fatalf("comm glyph missing: %q", lines[0])
	}
}

func TestGanttEmpty(t *testing.T) {
	if Gantt(&sim.Result{}, 40) != "" {
		t.Fatal("empty result should render empty")
	}
}

// TestGlyphs pins each span's Gantt character to its tag: forwards draw
// their micro-batch digit and backwards a letter, falling back to F and B
// past ten digits and 26 letters.
func TestGlyphs(t *testing.T) {
	cases := map[sim.Tag]byte{
		{Kind: sim.Fwd, MB: 3}:           '3',
		{Kind: sim.Fwd, MB: 12}:          'F',
		{Kind: sim.Bwd, Stage: 4, MB: 3}: 'd',
		{Kind: sim.Bwd, MB: 26}:          'B',
		{Kind: sim.CommB, MB: 1}:         '-',
		{Kind: sim.AllReduce, Stage: 1}:  '#',
		{Kind: sim.Init}:                 '+',
	}
	for tag, want := range cases {
		if got := glyph(sim.Span{Tag: tag, Kind: tag.Kind.String()}); got != want {
			t.Errorf("glyph of %q = %q, want %q", tag.Name(), got, want)
		}
	}
}

func TestWriteChromeValidJSON(t *testing.T) {
	res := tinyResult()
	var buf bytes.Buffer
	if err := WriteChrome(&buf, res); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Tid  int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 3 {
		t.Fatalf("%d events", len(doc.TraceEvents))
	}
	for i := 1; i < len(doc.TraceEvents); i++ {
		if doc.TraceEvents[i].Ts < doc.TraceEvents[i-1].Ts {
			t.Fatal("events not time-sorted")
		}
	}
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" || e.Dur < 0 {
			t.Fatalf("bad event %+v", e)
		}
	}
}

func TestMemCurve(t *testing.T) {
	points := []sim.MemPoint{{Time: 0, Bytes: 100}, {Time: 1, Bytes: 400}, {Time: 2, Bytes: 0}}
	curve, peak := MemCurve(points, 3, 30)
	if peak != 400 {
		t.Fatalf("peak %d", peak)
	}
	if len([]rune(curve)) != 30 {
		t.Fatalf("width %d", len([]rune(curve)))
	}
	if _, p := MemCurve(nil, 1, 10); p != 0 {
		t.Fatal("empty trace should have zero peak")
	}
}

func TestMemCurveMonotoneGlyphs(t *testing.T) {
	// A strictly growing trace must never render a lower level after a
	// higher one.
	var points []sim.MemPoint
	for i := 0; i < 10; i++ {
		points = append(points, sim.MemPoint{Time: float64(i), Bytes: int64(i+1) * 50})
	}
	curve, _ := MemCurve(points, 10, 40)
	runes := []rune(curve)
	levels := []rune("▁▂▃▄▅▆▇█")
	idx := func(r rune) int {
		for i, l := range levels {
			if l == r {
				return i
			}
		}
		return -1
	}
	for i := 1; i < len(runes); i++ {
		if idx(runes[i]) < idx(runes[i-1]) {
			t.Fatalf("non-monotone render: %s", curve)
		}
	}
}
