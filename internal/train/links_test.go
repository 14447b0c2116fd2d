package train

import (
	"math/rand"
	"testing"
)

// TestPartitionProperties checks the row-partition invariants over a sweep
// of geometries: offsets are monotone, start at 0, end at rows, never carve
// an empty part when rows >= k, and make the first parts one row larger on
// uneven splits.
func TestPartitionProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 2000; trial++ {
		k := 1 + rng.Intn(16)
		rows := k + rng.Intn(200)
		offs := partition(rows, k)
		if len(offs) != k+1 {
			t.Fatalf("rows=%d k=%d: %d offsets", rows, k, len(offs))
		}
		if offs[0] != 0 || offs[k] != rows {
			t.Fatalf("rows=%d k=%d: offsets span [%d,%d]", rows, k, offs[0], offs[k])
		}
		base, extra := rows/k, rows%k
		for i := 0; i < k; i++ {
			sz := offs[i+1] - offs[i]
			if sz <= 0 {
				t.Fatalf("rows=%d k=%d: part %d empty", rows, k, i)
			}
			want := base
			if i < extra {
				want++
			}
			if sz != want {
				t.Fatalf("rows=%d k=%d: part %d has %d rows, want %d", rows, k, i, sz, want)
			}
		}
	}
}

// TestIntersectTilesReceivers checks the split/concat redistribution
// invariant (§V-B2) that boundary wiring relies on: for any sender/receiver
// replica counts, each receiver's row range is tiled exactly — in sender
// order, gapless, non-overlapping — by its non-empty intersections with the
// senders, and symmetrically each sender's range is tiled by its receivers.
func TestIntersectTilesReceivers(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 2000; trial++ {
		rs := 1 + rng.Intn(8)
		rr := 1 + rng.Intn(8)
		rows := max(rs, rr) + rng.Intn(150)
		sendOffs := partition(rows, rs)
		recvOffs := partition(rows, rr)
		for q := 0; q < rr; q++ {
			at := recvOffs[q]
			for s := 0; s < rs; s++ {
				lo, hi := intersect(sendOffs, s, recvOffs, q)
				if hi <= lo {
					continue
				}
				if lo != at {
					t.Fatalf("rs=%d rr=%d rows=%d: receiver %d expected next rows at %d, sender %d covers [%d,%d)",
						rs, rr, rows, q, at, s, lo, hi)
				}
				at = hi
			}
			if at != recvOffs[q+1] {
				t.Fatalf("rs=%d rr=%d rows=%d: receiver %d tiled to %d, range ends at %d",
					rs, rr, rows, q, at, recvOffs[q+1])
			}
		}
		for s := 0; s < rs; s++ {
			at := sendOffs[s]
			for q := 0; q < rr; q++ {
				lo, hi := intersect(sendOffs, s, recvOffs, q)
				if hi <= lo {
					continue
				}
				if lo != at {
					t.Fatalf("rs=%d rr=%d rows=%d: sender %d expected next rows at %d, receiver %d covers [%d,%d)",
						rs, rr, rows, s, at, q, lo, hi)
				}
				at = hi
			}
			if at != sendOffs[s+1] {
				t.Fatalf("rs=%d rr=%d rows=%d: sender %d tiled to %d, range ends at %d",
					rs, rr, rows, s, at, sendOffs[s+1])
			}
		}
	}
}
