package transport

import "dapple/internal/tensor"

// sweepSpan is the element count the all-reduce sweep folds and copies out
// before it moves on: small enough that the span of every participant's
// buffer stays cache-resident between the fold and the copy-out.
const sweepSpan = 4096

// Ring is the in-process all-reduce of one replica group. Its participants
// form server groups — one group for a flat ring (NewRing), one per server
// for the hierarchical algorithm (NewHier). AllReduce walks the vector in
// spans of sweepSpan elements and, per span, folds each group's members in
// member order into the group's first buffer, folds the group leads in group
// order into the first lead, and copies the total out to every other buffer.
// Every add goes through tensor.VecAddInto, so each element is summed in one
// fixed order — rank 0, 1, ..., n-1 for a flat ring; member order then group
// order for a hierarchical one — and the sum over any sub-range of the
// vector is bit-identical to the same sub-range of a whole-vector reduction.
// That invariant lets the executor bucket gradients without perturbing
// training results. The sweep runs on the calling goroutine and keeps no
// scratch, so one Ring serves any number of consecutive calls.
type Ring struct {
	groups [][]int // participant indices per server, in member order
	dist   Group   // nil, or the cross-process exchange of the first lead
}

// NewRing returns the flat all-reduce of n participants, summed in rank
// order. size, the vector length, is unused: the sweep needs no scratch.
func NewRing(n, size int) *Ring {
	g := make([]int, n)
	for i := range g {
		g[i] = i
	}
	return &Ring{groups: [][]int{g}}
}

// NewHier returns the hierarchical all-reduce of paper §III over groups, each
// server's participant indices in member order: a server's members reduce
// onto its first member, so the cross-server step carries one vector per
// server instead of one per replica. A non-nil dist extends the group across
// worker processes — the process boundary standing in for the server one:
// after the local fold, dist sums the first lead over every process before
// it is copied out.
func NewHier(groups [][]int, dist Group) *Ring { return &Ring{groups: groups, dist: dist} }

// AllReduce sums bufs (one equal-length vector per participant) in place;
// every buffer ends holding the bit-identical total. It serves in-process
// groups, which cannot fail; a group spanning processes uses AllReduceAbort.
func (r *Ring) AllReduce(bufs [][]float64) { r.sweep(bufs, true, true) }

// AllReduceAbort is AllReduce for a group that may span processes, returning
// the cross-process exchange's error (ErrAborted once abort closes). A failed
// exchange leaves partial sums in the local buffers.
func (r *Ring) AllReduceAbort(bufs [][]float64, abort <-chan struct{}) error {
	if r.dist == nil {
		r.AllReduce(bufs)
		return nil
	}
	r.sweep(bufs, true, false)
	if err := r.dist.AllReduce(bufs[r.groups[0][0]], abort); err != nil {
		return err
	}
	r.sweep(bufs, false, true)
	return nil
}

// sweep runs the fold, the copy-out or both over every span of the vector.
func (r *Ring) sweep(bufs [][]float64, fold, out bool) {
	first := r.groups[0][0]
	total := bufs[first]
	for lo := 0; lo < len(total); lo += sweepSpan {
		hi := min(lo+sweepSpan, len(total))
		if fold {
			for _, g := range r.groups {
				for _, i := range g[1:] {
					tensor.VecAddInto(bufs[g[0]][lo:hi], bufs[i][lo:hi])
				}
			}
			for _, g := range r.groups[1:] {
				tensor.VecAddInto(total[lo:hi], bufs[g[0]][lo:hi])
			}
		}
		if out {
			for i, b := range bufs {
				if i != first {
					copy(b[lo:hi], total[lo:hi])
				}
			}
		}
	}
}
