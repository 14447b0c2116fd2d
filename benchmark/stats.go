package main

import (
	"math"
	"sort"
	"time"
)

// median returns the middle of xs (mean of the middle two for an even
// count) without modifying xs; 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// tailLadder lists the percentiles a tail latency may be reported at.
var tailLadder = []float64{50, 75, 90, 95, 99, 99.9}

// tailPercentile applies the reporting rule for tails: the highest ladder
// percentile that still has at least ten samples beyond it (nearest rank),
// so a tail is never a single outlier. Below twenty samples nothing but the
// median qualifies.
func tailPercentile(xs []float64) (pct, value float64) {
	n := len(xs)
	if n == 0 {
		return 50, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pct, value = 50, median(s)
	for _, p := range tailLadder[1:] {
		// The epsilon keeps 99.9 % of 10000 at rank 9990 despite rounding.
		if rank := int(math.Ceil(p*float64(n)/100 - 1e-9)); n-rank >= 10 {
			pct, value = p, s[rank-1]
		}
	}
	return pct, value
}

// ms converts seconds to milliseconds.
func ms(seconds float64) float64 { return seconds * 1e3 }

// timeFor calls fn repeatedly for at least budget and at least minCalls
// times after one untimed warm-up call, and returns each call's seconds.
func timeFor(budget time.Duration, minCalls int, fn func()) []float64 {
	fn()
	var out []float64
	for start := time.Now(); len(out) < minCalls || time.Since(start) < budget; {
		t0 := time.Now()
		fn()
		out = append(out, time.Since(t0).Seconds())
	}
	return out
}
