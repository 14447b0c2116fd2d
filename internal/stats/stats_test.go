package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMeanMinMax(t *testing.T) {
	xs := []float64{2, 4, 6}
	if Mean(xs) != 4 || Min(xs) != 2 || Max(xs) != 6 {
		t.Fatal("basic stats broken")
	}
	if Mean(nil) != 0 || Min(nil) != 0 || Max(nil) != 0 {
		t.Fatal("empty input should give zero")
	}
}

func TestBytes(t *testing.T) {
	cases := map[int64]string{
		512:       "512B",
		2048:      "2.0KiB",
		3 << 20:   "3.0MiB",
		5 << 30:   "5.0GiB",
		1<<40 + 1: "1.0TiB",
	}
	for in, want := range cases {
		if got := Bytes(in); got != want {
			t.Errorf("Bytes(%d) = %q, want %q", in, got, want)
		}
	}
}

func TestSeconds(t *testing.T) {
	cases := map[float64]string{
		0:      "0s",
		5e-6:   "5.0µs",
		2.5e-3: "2.5ms",
		1.25:   "1.25s",
	}
	for in, want := range cases {
		if got := Seconds(in); got != want {
			t.Errorf("Seconds(%g) = %q, want %q", in, got, want)
		}
	}
}

func TestRatio(t *testing.T) {
	if Ratio(6, 3) != 2 || Ratio(1, 0) != 0 {
		t.Fatal("ratio broken")
	}
}

// Property: mean is within [min, max].
func TestMeanBoundsProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				// Fold into a sane positive range; astronomically large
				// inputs overflow any mean and are not a use case here.
				xs = append(xs, math.Mod(math.Abs(x), 1e6)+0.1)
			}
		}
		if len(xs) == 0 {
			return true
		}
		m := Mean(xs)
		return m >= Min(xs)-1e-9 && m <= Max(xs)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
