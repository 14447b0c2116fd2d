package experiments

import (
	"context"
	"fmt"
	"strings"
	"testing"
)

// quick runs all generators in Quick mode once per test binary.
var quickOpts = Options{Quick: true}

func TestAllGeneratorsRegistered(t *testing.T) {
	ids := map[string]bool{}
	for _, g := range All() {
		if g.ID == "" || g.Name == "" || g.Run == nil {
			t.Fatalf("incomplete generator %+v", g)
		}
		if ids[g.ID] {
			t.Fatalf("duplicate id %s", g.ID)
		}
		ids[g.ID] = true
	}
	// Every evaluation table and figure of the paper is covered.
	for _, id := range []string{"table1", "table2", "table3", "table4", "table5",
		"table6", "table7", "table8", "fig3", "fig4", "fig7", "fig8", "fig12", "fig13", "fig14"} {
		if !ids[id] {
			t.Errorf("missing experiment %s", id)
		}
	}
	if ByID("table5") == nil || ByID("nope") != nil {
		t.Fatal("ByID broken")
	}
}

func TestReportRendering(t *testing.T) {
	r := &Report{ID: "x", Title: "demo", Header: []string{"a", "bb"}}
	r.Add("1", "2")
	r.Addf("note %d", 7)
	r.Sections = append(r.Sections, "body")
	s := r.String()
	for _, want := range []string{"demo", "a", "bb", "note 7", "body"} {
		if !strings.Contains(s, want) {
			t.Fatalf("missing %q in:\n%s", want, s)
		}
	}
}

func TestTable1(t *testing.T) {
	r := Table1(context.Background(), quickOpts)
	if len(r.Rows) != 5 {
		t.Fatalf("%d rows", len(r.Rows))
	}
}

func TestTable2(t *testing.T) {
	r := Table2(context.Background(), quickOpts)
	if len(r.Rows) != 6 {
		t.Fatalf("%d rows", len(r.Rows))
	}
}

func TestTable3(t *testing.T) {
	r := Table3(context.Background(), quickOpts)
	if len(r.Rows) != 3 {
		t.Fatalf("%d rows", len(r.Rows))
	}
}

func TestTable6Shape(t *testing.T) {
	r := Table6(context.Background(), quickOpts)
	if len(r.Rows) != 14 {
		t.Fatalf("%d rows", len(r.Rows))
	}
	// GPipe must OOM at high M, DAPPLE never.
	var gpipeOOM, dappleOOM bool
	for _, row := range r.Rows {
		if row[0] == "GPipe" && row[4] != "" {
			gpipeOOM = true
		}
		if row[0] == "DAPPLE" && row[4] != "" {
			dappleOOM = true
		}
	}
	if !gpipeOOM {
		t.Fatal("GPipe should OOM at large M")
	}
	if dappleOOM {
		t.Fatal("DAPPLE should not OOM")
	}
	// DAPPLE memory flat in M once a steady phase exists (M=8 and M=16 share
	// the same value). M=2 drains before reaching steady state, so it misses
	// the backward→forward handoff instant the allocate-before-free
	// accounting charges, and sits slightly lower.
	var mems []string
	for _, row := range r.Rows {
		if row[0] == "DAPPLE" {
			mems = append(mems, row[3])
		}
	}
	if len(mems) != 3 {
		t.Fatalf("DAPPLE rows: %v", mems)
	}
	if mems[1] != mems[2] {
		t.Fatalf("DAPPLE steady-state memory varies with M: %v", mems)
	}
}

func TestTable7OneRowPerPlanner(t *testing.T) {
	r := Table7(context.Background(), quickOpts)
	if r.Truncated() {
		t.Fatalf("truncated: %v", r.Notes)
	}
	if len(r.Rows) != 8 {
		t.Fatalf("%d rows, want DAPPLE and PipeDream for each of 4 models", len(r.Rows))
	}
	models := map[string]bool{}
	for i := 0; i < len(r.Rows); i += 2 {
		dapple, pd := r.Rows[i], r.Rows[i+1]
		if dapple[1] != "DAPPLE" || pd[1] != "PipeDream" || pd[0] != "" {
			t.Fatalf("rows %d-%d: %v / %v", i, i+1, dapple, pd)
		}
		if dapple[0] == "" || models[dapple[0]] {
			t.Fatalf("row %d: model %q missing or repeated", i, dapple[0])
		}
		models[dapple[0]] = true
		if dapple[2] == "" || pd[2] == "" {
			t.Fatalf("rows %d-%d: empty strategy", i, i+1)
		}
	}
}

func TestFig4PhaseAnatomy(t *testing.T) {
	r := Fig4(context.Background(), quickOpts)
	if r.Truncated() {
		t.Fatalf("truncated: %v", r.Notes)
	}
	// Units alternate stage, comm, stage, ..., stage: one row each.
	if len(r.Rows)%2 != 1 {
		t.Fatalf("%d rows, want stages interleaved with comm units", len(r.Rows))
	}
	for i, row := range r.Rows {
		want := fmt.Sprintf("stage%d", i/2)
		if i%2 == 1 {
			want = fmt.Sprintf("comm%d-%d", i/2, i/2+1)
		}
		if row[0] != want {
			t.Fatalf("row %d is %q, want %q", i, row[0], want)
		}
	}
	if len(r.Sections) != 1 || !strings.Contains(r.Sections[0], "stage0") {
		t.Fatalf("want one Gantt section, got %d", len(r.Sections))
	}
	found := false
	for _, n := range r.Notes {
		if strings.Contains(n, "Tw=") && strings.Contains(n, "(Eq. 1-2)") {
			found = true
		}
	}
	if !found {
		t.Fatalf("Eq. (1)-(2) latency note missing: %v", r.Notes)
	}
}

func TestTable8LinearScaling(t *testing.T) {
	r := Table8(context.Background(), quickOpts)
	if len(r.Rows) != 4 {
		t.Fatalf("%d rows", len(r.Rows))
	}
	depth := func(i int) int {
		var l int
		if _, err := sscan(r.Rows[i][1], &l); err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
		return l
	}
	d1, d2, d4, d8 := depth(0), depth(1), depth(2), depth(3)
	for _, pair := range [][2]int{{d2, 2 * d1}, {d4, 4 * d1}, {d8, 8 * d1}} {
		ratio := float64(pair[0]) / float64(pair[1])
		if ratio < 0.9 || ratio > 1.1 {
			t.Fatalf("depths not linear: %d %d %d %d", d1, d2, d4, d8)
		}
	}
}

func TestFig3HasBothSchedules(t *testing.T) {
	r := Fig3(context.Background(), quickOpts)
	if len(r.Sections) != 2 {
		t.Fatalf("%d sections", len(r.Sections))
	}
	if !strings.Contains(r.Sections[0], "GPipe") || !strings.Contains(r.Sections[1], "DAPPLE") {
		t.Fatal("sections mislabeled")
	}
}

func TestFig7UnevenWins(t *testing.T) {
	r := Fig7(context.Background(), quickOpts)
	if len(r.Rows) != 7 {
		t.Fatalf("%d rows", len(r.Rows))
	}
	// The note records the uneven advantage; it must exceed 1.05x.
	found := false
	for _, n := range r.Notes {
		if strings.Contains(n, "beats the even") && !strings.Contains(n, "1.00x") {
			found = true
		}
	}
	if !found {
		t.Fatalf("uneven advantage missing: %v", r.Notes)
	}
}

func TestFig8SplitWins(t *testing.T) {
	r := Fig8(context.Background(), quickOpts)
	if len(r.Rows) != 2 {
		t.Fatalf("%d rows", len(r.Rows))
	}
	// Round-robin must be slower (tail effect).
	var note string
	for _, n := range r.Notes {
		if strings.Contains(n, "slower") {
			note = n
		}
	}
	if note == "" {
		t.Fatal("tail-effect note missing")
	}
}

// sscan is a tiny fmt.Sscan wrapper to keep imports local.
func sscan(s string, v *int) (int, error) {
	n := 0
	for _, ch := range s {
		if ch < '0' || ch > '9' {
			break
		}
		n = n*10 + int(ch-'0')
	}
	*v = n
	return 1, nil
}
