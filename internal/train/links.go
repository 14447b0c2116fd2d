package train

import (
	"fmt"

	"dapple/internal/tensor"
	"dapple/internal/transport"
)

// partition returns the k+1 row offsets of splitting rows across k parts,
// first parts one row larger on uneven splits, so part i covers global rows
// [offs[i], offs[i+1]).
func partition(rows, k int) []int {
	offs := make([]int, k+1)
	base, extra := rows/k, rows%k
	for i := 0; i < k; i++ {
		sz := base
		if i < extra {
			sz++
		}
		offs[i+1] = offs[i] + sz
	}
	return offs
}

// intersect returns the global-row overlap of sender part s and receiver
// part q.
func intersect(sendOffs []int, s int, recvOffs []int, q int) (int, int) {
	lo := max(sendOffs[s], recvOffs[q])
	hi := min(sendOffs[s+1], recvOffs[q+1])
	return lo, hi
}

// edgeMaker realizes one directed link of a cut over some transport backend,
// returning nil (no error) when neither endpoint lives in this process — a
// distributed executor only materializes the edges it touches.
type edgeMaker func(id transport.EdgeID) (transport.Edge, error)

// bedge is one realized edge of a boundary: the global-row intersection it
// carries, the transport link, and the reusable send-side view headers
// (per-micro-batch for forward sends, a single scratch header for backward
// sends, which copy before returning).
type bedge struct {
	lo, hi int
	e      transport.Edge
	hdrs   []tensor.Matrix // forward: per-micro-batch view headers
	tmp    tensor.Matrix   // backward: reusable row-slice header
}

// inlet is one replica's receive side of one boundary direction: its
// incoming edges in counterpart order, the rows they tile, the free list of
// the buffers a multi-part gather leases (nil with a single edge), and the
// parts scratch. Only the replica's own worker goroutine touches it.
type inlet struct {
	edges []*bedge
	rows  int
	free  chan *tensor.Matrix
	parts []transport.Msg
}

// boundary wires one stage cut of the pipeline: an edge matrix between the
// sender stage's replicas and the receiver stage's replicas realizing the
// paper's split/concat semantics (§V-B2). Each replica owns a contiguous
// global row range of the micro-batch; an edge exists exactly where a
// sender's range intersects a receiver's, so unequal replication degrees
// redistribute rows without any central concat node. Forward (activations)
// and backward (gradients) directions use separate edges, mirroring the
// simulator's full-duplex link resources. A boundary is built once per step
// geometry and all its transfer state — view headers forward, recycled
// buffers backward, leased gather buffers both ways — is reused across
// training iterations, so a warm in-process boundary moves every
// micro-batch with zero allocation. In a distributed run, pairs whose
// endpoints share the process use in-process edges and cross-process pairs
// use the TCP backend; pairs entirely remote stay nil and appear in no list.
type boundary struct {
	sendOffs []int      // sender-stage row offsets, len(senders)+1
	recvOffs []int      // receiver-stage row offsets, len(receivers)+1
	fwdOut   [][]*bedge // [sender]: forward edges in receiver order
	bwdOut   [][]*bedge // [receiver]: backward edges in sender order
	fwdIn    []inlet    // [receiver]: forward inputs from the senders
	bwdIn    []inlet    // [sender]: gradients from the receivers
}

// newBoundary builds the edge matrix for cut bound (between stages bound and
// bound+1) with rs sender replicas and rr receiver replicas over
// micro-batches of the given rows. Edges are buffered for m in-flight
// micro-batches so sends never block; mk chooses each pair's backend.
func newBoundary(bound, rows, rs, rr, m int, mk edgeMaker) (*boundary, error) {
	b := &boundary{
		sendOffs: partition(rows, rs),
		recvOffs: partition(rows, rr),
		fwdOut:   make([][]*bedge, rs),
		bwdOut:   make([][]*bedge, rr),
		fwdIn:    make([]inlet, rr),
		bwdIn:    make([]inlet, rs),
	}
	for s := 0; s < rs; s++ {
		for q := 0; q < rr; q++ {
			lo, hi := intersect(b.sendOffs, s, b.recvOffs, q)
			if hi <= lo {
				continue
			}
			fe, err := mk(transport.EdgeID{Bound: bound, Dir: transport.Fwd, S: s, Q: q})
			if err != nil {
				return nil, err
			}
			if fe != nil {
				link := &bedge{lo: lo, hi: hi, e: fe, hdrs: make([]tensor.Matrix, m)}
				b.fwdOut[s] = append(b.fwdOut[s], link)
				b.fwdIn[q].edges = append(b.fwdIn[q].edges, link)
			}
			be, err := mk(transport.EdgeID{Bound: bound, Dir: transport.Bwd, S: q, Q: s})
			if err != nil {
				return nil, err
			}
			if be != nil {
				link := &bedge{lo: lo, hi: hi, e: be}
				b.bwdOut[q] = append(b.bwdOut[q], link)
				b.bwdIn[s].edges = append(b.bwdIn[s].edges, link)
			}
		}
	}
	// A forward input stays leased until the receiver's backward of its
	// micro-batch, so up to m are out at once; a gradient is consumed within
	// its backward op.
	for q := range b.fwdIn {
		b.fwdIn[q].init(b.recvOffs[q+1]-b.recvOffs[q], m)
	}
	for s := range b.bwdIn {
		b.bwdIn[s].init(b.sendOffs[s+1]-b.sendOffs[s], 1)
	}
	return b, nil
}

// init sizes the inlet for rows-row gathers with up to held leased buffers
// out at once.
func (in *inlet) init(rows, held int) {
	in.rows = rows
	in.parts = make([]transport.Msg, 0, len(in.edges))
	if len(in.edges) > 1 {
		in.free = make(chan *tensor.Matrix, held)
	}
}

// sendFwd scatters sender replica s's forward output (its local rows) to
// every receiver whose row range intersects, publishing views through the
// per-micro-batch header ring — no copy, no allocation on the in-process
// backend. The sender must keep data's storage leased until its own backward
// of micro-batch m (the executor's run ownership does), which by pipeline
// causality outlives every receiver's reads and every in-flight
// serialization.
func (b *boundary) sendFwd(s, m int, data *tensor.Matrix) error {
	srcLo := b.sendOffs[s]
	for _, be := range b.fwdOut[s] {
		hdr := &be.hdrs[m]
		data.RowSliceInto(hdr, be.lo-srcLo, be.hi-srcLo)
		if err := be.e.SendView(m, hdr); err != nil {
			return err
		}
	}
	return nil
}

// sendBwd scatters receiver replica q's input gradient back to every
// intersecting sender replica of the previous stage, copying into recycled
// transfer buffers (data may be released by the caller immediately after).
func (b *boundary) sendBwd(q, m int, data *tensor.Matrix) error {
	srcLo := b.recvOffs[q]
	for _, be := range b.bwdOut[q] {
		data.RowSliceInto(&be.tmp, be.lo-srcLo, be.hi-srcLo)
		if err := be.e.SendCopy(m, &be.tmp); err != nil {
			return err
		}
	}
	return nil
}

// gather receives micro-batch m's parts over the inlet's edges, in
// counterpart order, on the calling worker's goroutine. A single part
// passes through zero-copy together with its recycle destination (nil for
// an in-process view into sender-owned storage); several parts are
// concatenated into a buffer leased from the inlet's free list and their
// transfer buffers recycled at once. The caller owns the result until it
// hands it to transport.Recycle with the returned destination.
func (in *inlet) gather(m int, abort <-chan struct{}) (*tensor.Matrix, chan *tensor.Matrix, error) {
	parts := in.parts[:0]
	for _, be := range in.edges {
		msg, err := be.e.Recv(abort)
		if err != nil {
			return nil, nil, err
		}
		if msg.M != m {
			return nil, nil, fmt.Errorf("train: link expected micro-batch %d, got %d", m, msg.M)
		}
		parts = append(parts, msg)
	}
	if len(parts) == 1 {
		return parts[0].Data, parts[0].Free, nil
	}
	dst := transport.LeaseBuf(in.free, in.rows, parts[0].Data.Cols)
	at := 0
	for _, p := range parts {
		at += copy(dst.Data[at:], p.Data.Data)
		transport.Recycle(p.Free, p.Data)
	}
	if at != len(dst.Data) {
		panic("train: gathered parts do not tile the destination")
	}
	return dst, in.free, nil
}
