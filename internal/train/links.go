package train

import (
	"fmt"

	"dapple/internal/nn"
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

// boundary wires one stage cut of the pipeline: an edge matrix between the
// sender stage's replicas and the receiver stage's replicas realizing the
// paper's split/concat semantics (§V-B2). Each replica owns a contiguous
// global row range of the micro-batch; an edge exists exactly where a
// sender's range intersects a receiver's, so unequal replication degrees
// redistribute rows without any central concat node. Forward (activations)
// and backward (gradients) directions use separate edges, mirroring the
// simulator's full-duplex link resources. A boundary is built once per step
// geometry and all its transfer state — view headers forward, recycled
// buffers backward — is reused across training iterations, so a warm
// in-process boundary moves every micro-batch with zero allocation. In a
// distributed run, pairs whose endpoints share the process use in-process
// edges and cross-process pairs use the TCP backend; pairs entirely remote
// stay nil.
type boundary struct {
	sendOffs []int      // sender-stage row offsets, len(senders)+1
	recvOffs []int      // receiver-stage row offsets, len(receivers)+1
	fwd      [][]*bedge // [sender][receiver]
	bwd      [][]*bedge // [sender][receiver]
}

// newBoundary builds the edge matrix for cut bound (between stages bound and
// bound+1) with rs sender replicas and rr receiver replicas over
// micro-batches of the given rows. Edges are buffered for m in-flight
// micro-batches so sends never block; mk chooses each pair's backend.
func newBoundary(bound, rows, rs, rr, m int, mk edgeMaker) (*boundary, error) {
	b := &boundary{
		sendOffs: partition(rows, rs),
		recvOffs: partition(rows, rr),
		fwd:      make([][]*bedge, rs),
		bwd:      make([][]*bedge, rs),
	}
	for s := 0; s < rs; s++ {
		b.fwd[s] = make([]*bedge, rr)
		b.bwd[s] = make([]*bedge, rr)
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
				b.fwd[s][q] = &bedge{lo: lo, hi: hi, e: fe, hdrs: make([]tensor.Matrix, m)}
			}
			be, err := mk(transport.EdgeID{Bound: bound, Dir: transport.Bwd, S: q, Q: s})
			if err != nil {
				return nil, err
			}
			if be != nil {
				b.bwd[s][q] = &bedge{lo: lo, hi: hi, e: be}
			}
		}
	}
	return b, nil
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
	for _, be := range b.fwd[s] {
		if be == nil {
			continue
		}
		hdr := &be.hdrs[m]
		data.RowSliceInto(hdr, be.lo-srcLo, be.hi-srcLo)
		if err := be.e.SendView(m, hdr); err != nil {
			return err
		}
	}
	return nil
}

// recvFwdParts receives receiver replica q's forward input parts for
// micro-batch m in sender order, reusing the caller's scratch slice. Parts
// from in-process senders are views into sender-owned storage (Free nil);
// parts from remote senders arrive in recycled transfer buffers the caller
// must Recycle once consumed.
func (b *boundary) recvFwdParts(q, m int, scratch []transport.Msg, abort <-chan struct{}) ([]transport.Msg, error) {
	parts := scratch[:0]
	for s := range b.fwd {
		be := b.fwd[s][q]
		if be == nil {
			continue
		}
		in, err := be.e.Recv(abort)
		if err != nil {
			return nil, err
		}
		if in.M != m {
			return nil, fmt.Errorf("train: link expected F%d, got F%d", m, in.M)
		}
		parts = append(parts, in)
	}
	return parts, nil
}

// sendBwd scatters receiver replica q's input gradient back to every
// intersecting sender replica of the previous stage, copying into recycled
// transfer buffers (data may be released by the caller immediately after).
func (b *boundary) sendBwd(q, m int, data *tensor.Matrix) error {
	srcLo := b.recvOffs[q]
	for s := range b.bwd {
		be := b.bwd[s][q]
		if be == nil {
			continue
		}
		data.RowSliceInto(&be.tmp, be.lo-srcLo, be.hi-srcLo)
		if err := be.e.SendCopy(m, &be.tmp); err != nil {
			return err
		}
	}
	return nil
}

// recvBwd gathers sender replica s's output gradient for micro-batch m. A
// single full-range part passes through zero-copy together with its recycle
// destination; multiple parts are concatenated into a workspace buffer
// (free == nil) with the transfer buffers recycled immediately. Either way
// the caller owns the returned gradient until it returns it: to free when
// non-nil, to ws otherwise.
func (b *boundary) recvBwd(s, m int, scratch *[]transport.Msg, ws *nn.Workspace, abort <-chan struct{}) (*tensor.Matrix, chan *tensor.Matrix, error) {
	parts := (*scratch)[:0]
	defer func() { *scratch = parts[:0] }()
	for q := range b.bwd[s] {
		be := b.bwd[s][q]
		if be == nil {
			continue
		}
		in, err := be.e.Recv(abort)
		if err != nil {
			return nil, nil, err
		}
		if in.M != m {
			return nil, nil, fmt.Errorf("train: link expected B%d, got B%d", m, in.M)
		}
		parts = append(parts, in)
	}
	if len(parts) == 1 {
		return parts[0].Data, parts[0].Free, nil
	}
	dst := ws.Get(b.sendOffs[s+1]-b.sendOffs[s], parts[0].Data.Cols)
	concatMsgRows(dst, parts)
	for _, p := range parts {
		transport.Recycle(p.Free, p.Data)
	}
	return dst, nil, nil
}

// concatMsgRows stacks the messages' tensors into dst in order.
func concatMsgRows(dst *tensor.Matrix, parts []transport.Msg) {
	at := 0
	for _, p := range parts {
		copy(dst.Data[at:], p.Data.Data)
		at += len(p.Data.Data)
	}
	if at != len(dst.Data) {
		panic("train: concatenated parts do not tile the destination")
	}
}
