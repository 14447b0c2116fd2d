package transport

import (
	"fmt"
	"slices"
	"sync"

	"dapple/internal/tensor"
)

// Inproc is one rank of a rank-addressed in-memory mesh (NewInprocMesh): Go
// channels in place of sockets between logical ranks of one process. An
// edge toward its own rank is a fresh channel on every open, which the
// caller hands to both of its goroutines; toward another rank, the k-th open
// of an EdgeID by one side shares a channel with the k-th by the other. Views
// pass zero-copy and copies reuse recycled buffers: a warm edge never allocates.
type Inproc struct {
	rank   int
	hub    *inprocHub
	closed chan struct{}
	once   sync.Once
}

// inprocHub is a mesh's shared state: its endpoints, and per (EdgeID,
// opener, peer) the edges the peer has yet to pair with, oldest first.
type inprocHub struct {
	ends    []*Inproc
	mu      sync.Mutex
	pending map[inprocKey][]*inprocEdge
}

type inprocKey struct {
	id       EdgeID
	from, to int
}

// NewInprocMesh returns the n endpoints of one in-memory mesh, by rank.
func NewInprocMesh(n int) []*Inproc {
	hub := &inprocHub{ends: make([]*Inproc, n), pending: make(map[inprocKey][]*inprocEdge)}
	for r := range hub.ends {
		hub.ends[r] = &Inproc{rank: r, hub: hub, closed: make(chan struct{})}
	}
	return slices.Clone(hub.ends)
}

// NewInproc returns the in-process transport: the one-rank mesh.
func NewInproc() *Inproc { return NewInprocMesh(1)[0] }

// OpenEdge opens edge id toward rank peer, buffered for cap in-flight
// micro-batches: a fresh edge toward the endpoint's own rank, else the
// peer's oldest unpaired open of id, else a new edge for its next open.
func (t *Inproc) OpenEdge(id EdgeID, peer, cap int) (Edge, error) {
	h := t.hub
	if peer < 0 || peer >= len(h.ends) {
		return nil, fmt.Errorf("transport: rank %d of a %d-rank mesh has no peer %d", t.rank, len(h.ends), peer)
	}
	if peer == t.rank {
		return newInprocEdge(cap, t.closed, nil), nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	theirs := inprocKey{id: id, from: peer, to: t.rank}
	if q := h.pending[theirs]; len(q) > 0 {
		h.pending[theirs] = q[1:]
		return q[0], nil
	}
	e := newInprocEdge(cap, t.closed, h.ends[peer].closed)
	mine := inprocKey{id: id, from: t.rank, to: peer}
	h.pending[mine] = append(h.pending[mine], e)
	return e, nil
}

// Close fails receives and blocked sends on the endpoint's edges, at both
// ends, with ErrClosed.
func (t *Inproc) Close() error {
	t.once.Do(func() { close(t.closed) })
	return nil
}

// inprocEdge is one channel link, shared by both ends and buffered for every
// in-flight micro-batch of a step, so its sends never block.
type inprocEdge struct {
	ch     chan Msg
	free   chan *tensor.Matrix
	closed [2]chan struct{} // both endpoints' Close signals; [1] nil on a self edge
}

func newInprocEdge(cap int, a, b chan struct{}) *inprocEdge {
	return &inprocEdge{ch: make(chan Msg, cap), free: make(chan *tensor.Matrix, cap), closed: [2]chan struct{}{a, b}}
}

// put sends msg, or returns ErrClosed once either endpoint closes.
func (e *inprocEdge) put(msg Msg) error {
	select {
	case e.ch <- msg:
		return nil
	case <-e.closed[0]:
	case <-e.closed[1]:
	}
	return ErrClosed
}

// SendView publishes the view without copying; the receiver sees the
// sender's storage directly.
func (e *inprocEdge) SendView(m int, view *tensor.Matrix) error {
	return e.put(Msg{M: m, Data: view})
}

// SendCopy copies data into a recycled transfer buffer and sends it with the
// edge's free list as the recycle destination.
func (e *inprocEdge) SendCopy(m int, data *tensor.Matrix) error {
	buf := LeaseBuf(e.free, data.Rows, data.Cols)
	copy(buf.Data, data.Data)
	return e.put(Msg{M: m, Data: buf, Free: e.free})
}

// Recv returns the next message, ErrAborted once abort closes, or ErrClosed
// once either endpoint closes.
func (e *inprocEdge) Recv(abort <-chan struct{}) (Msg, error) {
	select {
	case msg := <-e.ch:
		return msg, nil
	case <-abort:
		return Msg{}, ErrAborted
	case <-e.closed[0]:
	case <-e.closed[1]:
	}
	return Msg{}, ErrClosed
}
