package transport

import (
	"fmt"
	"slices"

	"dapple/internal/tensor"
)

// OpenGroup opens collective group gid of rank self over the member ranks
// (strictly increasing, including self) for size-element vectors, built only
// from t's sum edges {gid, sum, self, r} and {gid, sum, r, self} toward and
// from every other member r. A group so inherits what t's edges do on any
// backend: TCP generations and Retire (survivors re-open with the same epoch
// floor), the in-memory mesh's pairing, and a Chaos wrapper's faults.
func OpenGroup(t Transport, self, gid int, members []int, size int) (Group, error) {
	g := &edgeGroup{id: gid, size: size, self: slices.Index(members, self), members: slices.Clone(members)}
	for i := 1; i < len(members); i++ {
		if members[i] <= members[i-1] {
			return nil, fmt.Errorf("transport: group %d members must be strictly increasing", gid)
		}
	}
	if g.self < 0 {
		return nil, fmt.Errorf("transport: rank %d not a member of group %d", self, gid)
	}
	n := len(g.members)
	g.send = make([]Edge, n)
	g.recv = make([]Edge, n)
	g.in = make([]Msg, n)
	g.bufs = make([][]float64, n)
	g.fold = NewRing(n, size)
	for i, r := range g.members {
		if i == g.self {
			continue
		}
		var err error
		if g.send[i], err = t.OpenEdge(EdgeID{Bound: gid, Dir: sum, S: self, Q: r}, r, 2); err != nil {
			return nil, err
		}
		if g.recv[i], err = t.OpenEdge(EdgeID{Bound: gid, Dir: sum, S: r, Q: self}, r, 2); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// edgeGroup is one cross-rank all-reduce domain — the cross-server phase of
// the paper's §III hierarchical all-reduce: every member sends its vector to
// every other over sum edges, then each folds all members' vectors in member
// order, so all ranks end bit-identical. Contributions carry the group's
// round number as their Msg.M, so a duplicated or stale frame fails the
// round instead of being summed into it.
type edgeGroup struct {
	id      int
	members []int // strictly increasing ranks, including self
	self    int   // index of this rank in members
	size    int
	round   int32 // all-reduces started; 32-bit like the frame header's M

	send, recv []Edge      // per-member sum edges (nil at self)
	in         []Msg       // per-member received contributions
	bufs       [][]float64 // per-member vectors the fold sums, buf at self
	fold       *Ring       // member-order fold over bufs
}

// AllReduce exchanges buf with every member and replaces it with the sum
// over all members taken in member order — identical on every rank.
func (g *edgeGroup) AllReduce(buf []float64, abort <-chan struct{}) error {
	if len(buf) != g.size {
		return fmt.Errorf("transport: group %d all-reduce of %d elements, want %d", g.id, len(buf), g.size)
	}
	round := int(g.round)
	g.round++
	vec := tensor.Matrix{Rows: 1, Cols: g.size, Data: buf}
	for _, e := range g.send {
		if e != nil {
			if err := e.SendCopy(round, &vec); err != nil {
				return err
			}
		}
	}
	for i, e := range g.recv {
		if e == nil {
			g.bufs[i] = buf
			continue
		}
		msg, err := e.Recv(abort)
		if err != nil {
			return err
		}
		if len(msg.Data.Data) != g.size || msg.M != round {
			Recycle(msg.Free, msg.Data)
			return fmt.Errorf("transport: group %d contribution of %d elements in round %d from rank %d, want %d in round %d",
				g.id, len(msg.Data.Data), msg.M, g.members[i], g.size, round)
		}
		g.in[i] = msg
		g.bufs[i] = msg.Data.Data
	}
	// Fold only: the total lands in member 0's vector, and the received
	// contributions are recycled below, so copying it into them is waste.
	g.fold.sweep(g.bufs, true, false)
	if g.self != 0 {
		copy(buf, g.bufs[0])
	}
	for i, msg := range g.in {
		if i != g.self {
			Recycle(msg.Free, msg.Data)
		}
	}
	return nil
}
