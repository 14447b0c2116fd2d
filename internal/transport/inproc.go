package transport

import (
	"errors"

	"dapple/internal/tensor"
)

// Inproc is the in-process Transport: an edge is a buffered Go channel
// shared by both endpoints, exactly the executor's original link semantics —
// zero-copy view publishing forward, recycled copy buffers backward, and no
// allocation at steady state. OpenEdge returns a fresh shared edge each
// call; the caller hands the same Edge to both endpoint goroutines (peer is
// ignored). In-process gradient collectives run directly in shared memory
// (Ring), so OpenGroup is unsupported.
type Inproc struct{}

// NewInproc returns the in-process transport.
func NewInproc() *Inproc { return &Inproc{} }

// OpenEdge returns a fresh in-process edge buffered for cap in-flight
// micro-batches; both endpoints must share the returned Edge.
func (*Inproc) OpenEdge(id EdgeID, peer, cap int) (Edge, error) {
	return &inprocEdge{
		ch:   make(chan Msg, cap),
		free: make(chan *tensor.Matrix, cap),
	}, nil
}

// OpenGroup is unsupported: in-process collectives run in shared memory.
func (*Inproc) OpenGroup(gid int, members []int, size int) (Group, error) {
	return nil, errors.New("transport: in-process collectives run in shared memory")
}

// Close implements Transport; the in-process backend holds no resources.
func (*Inproc) Close() error { return nil }

// inprocEdge is one channel link. Sends never block because the channel is
// buffered for every in-flight micro-batch of a step.
type inprocEdge struct {
	ch   chan Msg
	free chan *tensor.Matrix
}

// SendView publishes the view without copying; the receiver sees the
// sender's storage directly.
func (e *inprocEdge) SendView(m int, view *tensor.Matrix) error {
	e.ch <- Msg{M: m, Data: view}
	return nil
}

// SendCopy copies data into a recycled transfer buffer and sends it with the
// edge's free list as the recycle destination.
func (e *inprocEdge) SendCopy(m int, data *tensor.Matrix) error {
	buf := LeaseBuf(e.free, data.Rows, data.Cols)
	copy(buf.Data, data.Data)
	e.ch <- Msg{M: m, Data: buf, Free: e.free}
	return nil
}

// Recv returns the next message or ErrAborted.
func (e *inprocEdge) Recv(abort <-chan struct{}) (Msg, error) {
	select {
	case msg := <-e.ch:
		return msg, nil
	case <-abort:
		return Msg{}, ErrAborted
	}
}
