package planner

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"dapple/internal/core"
	"dapple/internal/hardware"
	"dapple/internal/model"
)

// searched runs the search phase of Plan (no simulator re-ranking).
func searched(m *model.Model, c hardware.Cluster, opts Options) *search {
	s := newSearch(context.Background(), m, c, opts.Normalize(m.DefaultGBS))
	s.run()
	return s
}

// The reference corners get their simulator hearing: pure data parallelism
// (the root candidate) and the balanced straight pipeline seed reach the list
// finalize simulates, however many hybrids beat them analytically.
func TestFinalistsIncludeCorners(t *testing.T) {
	m, c := model.GNMT16(), hardware.ConfigA(2)
	var dp, straight bool
	for _, f := range searched(m, c, Options{}).finalists() {
		switch f.plan.Kind() {
		case core.KindDP:
			dp = true
		case core.KindStraight:
			straight = straight || len(f.plan.Stages) == c.NumDevices()
		}
	}
	if !dp || !straight {
		t.Fatalf("%s on %s: finalists include DP %v, straight seed %v; want both", m.Name, c.Name, dp, straight)
	}
}

// referenceFinalists is the list finalize simulates, built from every
// feasible candidate kept best-per-signature: all of them sorted by
// betterCand, the best k, then every non-hybrid one beyond those.
func referenceFinalists(all []candidate, k int) []candidate {
	sort.Slice(all, func(i, j int) bool { return betterCand(all[i], all[j]) })
	if len(all) <= k {
		return all
	}
	out := all[:k:k]
	for _, c := range all[k:] {
		if c.plan.Kind() != core.KindHybrid {
			out = append(out, c)
		}
	}
	return out
}

func candKeys(list []candidate) []string {
	out := make([]string, len(list))
	for i, c := range list {
		out[i] = fmt.Sprintf("%s seq=%d analytic=%#x rc=%v", c.sig, c.seq, math.Float64bits(c.analytic), c.recompute)
	}
	return out
}

func diffKeys(t *testing.T, what string, got, want []string) {
	t.Helper()
	if fmt.Sprint(got) == fmt.Sprint(want) {
		return
	}
	for i := 0; i < len(got) || i < len(want); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			t.Errorf("%s: %d finalists, want %d; first difference at %d:\n  got  %s\n  want %s", what, len(got), len(want), i, g, w)
			return
		}
	}
}

// The bounded finalist table is exact: the list finalize simulates equals
// the one a recorder keeping every feasible candidate would give. The
// reference search runs with Finalists 1<<20, where the table never evicts
// and never rejects by the K-th bound, so it keeps the best entry of every
// signature; the bounded searches run at several K and worker counts, so
// evictions, K-th bound rejections and branch merges all occur.
func TestFinalistTableMatchesUnbounded(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, c := range []hardware.Cluster{hardware.ConfigA(2), hardware.ConfigB(2), hardware.ConfigB(3), hardware.ConfigB(4)} {
		for trial := 0; trial < 2; trial++ {
			m := randomModel(rng, 6+rng.Intn(9))
			all := searched(m, c, Options{Finalists: 1 << 20, Workers: 1}).cands.all()
			for _, k := range []int{1, 6, 24} {
				want := candKeys(referenceFinalists(append([]candidate(nil), all...), k))
				for _, w := range []int{1, 8} {
					got := candKeys(searched(m, c, Options{Finalists: k, Workers: w}).finalists())
					diffKeys(t, fmt.Sprintf("%s on %s(%d) K=%d workers=%d", m.Name, c.Name, c.Servers, k, w), got, want)
				}
			}
		}
	}
}

// The same exactness on adversarial streams: few signatures, many exact
// analytic ties, every kind, and the stream split over tables that merge in
// shuffled order — against a reference that keeps every candidate.
func TestFinalistTableStreams(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	kinds := map[bool]*core.Plan{
		true:  {Stages: []core.Stage{{Devices: make([]hardware.DeviceID, 2)}, {Devices: make([]hardware.DeviceID, 1)}}},
		false: {Stages: []core.Stage{{}}},
	}
	for trial := 0; trial < 200; trial++ {
		k := 1 + rng.Intn(6)
		best := map[string]candidate{}
		parts := make([]finalistTable, 1+rng.Intn(4))
		for i := range parts {
			parts[i].k = k
		}
		for seq := 0; seq < 60; seq++ {
			hybrid := rng.Intn(4) > 0
			c := candidate{
				plan:     kinds[hybrid],
				analytic: float64(rng.Intn(8)),
				seq:      uint64(seq),
				sig:      fmt.Sprintf("%v%d", hybrid, rng.Intn(12)),
			}
			if old, ok := best[c.sig]; !ok || betterCand(c, old) {
				best[c.sig] = c
			}
			parts[rng.Intn(len(parts))].put(c, hybrid)
		}
		var ref []candidate
		for _, c := range best {
			ref = append(ref, c)
		}
		merged := finalistTable{k: k}
		for _, i := range rng.Perm(len(parts)) {
			merged.merge(&parts[i])
		}
		s := &search{cands: merged}
		diffKeys(t, fmt.Sprintf("trial %d (K=%d, %d tables)", trial, k, len(parts)),
			candKeys(s.finalists()), candKeys(referenceFinalists(ref, k)))
	}
}
