// Package transport carries the training runtime's cross-stage tensor
// traffic and gradient collectives over pluggable backends. An Edge is one
// directed (sender replica, receiver replica) link of a pipeline stage cut;
// a Group, built from any Transport's edges by OpenGroup, is one replicated
// stage's gradient all-reduce domain across ranks. The Inproc backend is a
// rank-addressed in-memory mesh of Go channels, the TCP backend frames the
// same messages over sockets between worker processes (paper §III's
// real-cluster setting), and Chaos faults either.
package transport

import (
	"errors"
	"sync/atomic"

	"dapple/internal/tensor"
)

// ErrAborted is returned by blocking transport operations unblocked by the
// caller's abort channel.
var ErrAborted = errors.New("transport: aborted")

// ErrClosed is returned by operations on a transport that has been closed or
// has failed.
var ErrClosed = errors.New("transport: closed")

// Dir is an edge's direction across a stage cut.
type Dir uint8

// Edge directions: Fwd edges carry activations from stage i to i+1, Bwd
// edges carry gradients from stage i+1 back to i, and sum edges carry one
// member's contribution to a collective group (see OpenGroup).
const (
	Fwd Dir = iota
	Bwd
	sum
)

// EdgeID names one directed link of a stage cut: the cut index (between
// stages Bound and Bound+1), the direction, and the (sender replica S,
// receiver replica Q) pair whose row ranges intersect. Both endpoints of a
// cross-process edge open the same EdgeID; the ID is the demultiplexing key
// on a shared connection. A sum edge reuses the fields for a collective
// group: Bound is the group id, S and Q the sending and receiving ranks.
type EdgeID struct {
	// Bound is the stage-cut index (between stages Bound and Bound+1).
	Bound int
	// Dir is the transfer direction across the cut.
	Dir Dir
	// S is the sender-side replica index of the stage that produces data on
	// this edge (the upstream stage for Fwd, the downstream stage for Bwd).
	S int
	// Q is the receiver-side replica index.
	Q int
}

// Msg is one received micro-batch block: the micro-batch index, the tensor,
// and the free list the receiver must Recycle the tensor into once consumed
// (nil when Data is a view into sender-owned storage, which needs no
// recycling).
type Msg struct {
	// M is the micro-batch index the block belongs to.
	M int
	// Data holds the block's rows.
	Data *tensor.Matrix
	// Free is the recycle destination for Data; nil for zero-copy views.
	Free chan *tensor.Matrix
}

// Edge is one directed tensor link between two stage replicas. SendView
// publishes a view of sender-owned storage without copying: the storage must
// stay valid until the sender's own backward of micro-batch m, which by
// pipeline causality (the receiver's gradient for m flows back through the
// sender before that backward) outlives every read and every in-flight
// serialization of the view. SendCopy copies data before returning, so the
// caller may reuse it immediately. Sends on an edge sized for the step's
// micro-batch count never block; Recv blocks until a message or abort.
type Edge interface {
	// SendView publishes micro-batch m as a view of sender-owned storage.
	SendView(m int, view *tensor.Matrix) error
	// SendCopy sends micro-batch m by value; data is free for reuse on return.
	SendCopy(m int, data *tensor.Matrix) error
	// Recv returns the next message, or ErrAborted once abort closes.
	Recv(abort <-chan struct{}) (Msg, error)
}

// Group is one replicated stage's cross-rank gradient all-reduce domain.
// AllReduce exchanges buf with every member and replaces it with the
// element-wise sum over all members, computed in the same deterministic
// member order on every rank so all members end bit-identical.
type Group interface {
	// AllReduce sums buf across the group in place.
	AllReduce(buf []float64, abort <-chan struct{}) error
}

// Transport opens edges between training ranks (OpenGroup builds groups
// from them): goroutines on the in-memory mesh, worker processes over TCP.
type Transport interface {
	// OpenEdge opens (or re-opens, after a geometry change) the edge id
	// toward peer, buffered for cap in-flight micro-batches.
	OpenEdge(id EdgeID, peer, cap int) (Edge, error)
	// Close releases the transport; blocked operations return ErrClosed.
	Close() error
}

// bufMisses counts transfer-buffer leases that found a recycled buffer of
// the wrong shape with insufficient capacity and had to drop it for a fresh
// allocation — nonzero only across micro-batch geometry changes.
var bufMisses atomic.Int64

// BufMisses returns the cumulative count of recycled transfer buffers
// dropped because their capacity could not hold a newly requested shape.
func BufMisses() int64 { return bufMisses.Load() }

// LeaseBuf leases a rows x cols transfer buffer from a free list. A recycled
// buffer of the right shape is returned as-is; one of a different shape but
// sufficient capacity is resliced and re-leased (geometry changes reuse
// warm buffers instead of silently discarding them); one too small is
// dropped and the miss counted in BufMisses. An empty free list allocates.
// The returned buffer's contents are undefined.
func LeaseBuf(free chan *tensor.Matrix, rows, cols int) *tensor.Matrix {
	select {
	case b := <-free:
		if b.Rows == rows && b.Cols == cols {
			return b
		}
		if cap(b.Data) >= rows*cols {
			b.Rows, b.Cols, b.Data = rows, cols, b.Data[:rows*cols]
			return b
		}
		bufMisses.Add(1)
	default:
	}
	return tensor.New(rows, cols)
}

// Recycle returns a consumed transfer buffer to its free list, dropping it
// when the list is full. A nil free list (zero-copy views) is a no-op.
func Recycle(free chan *tensor.Matrix, b *tensor.Matrix) {
	if free == nil {
		return
	}
	select {
	case free <- b:
	default:
	}
}
