package transport

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"dapple/internal/tensor"
)

// ErrChaos is wrapped by every fault the Chaos transport injects, so tests
// and the session layer can tell an injected failure from a real one with
// errors.Is.
var ErrChaos = fmt.Errorf("transport: injected fault")

// ChaosConfig scripts the faults a Chaos transport injects. All probability
// draws come from per-edge deterministic streams (see Chaos), so the same
// config and seed produce the same fault schedule on every run regardless of
// goroutine interleaving.
type ChaosConfig struct {
	// Seed roots every per-edge fault stream; two Chaos transports with the
	// same Seed and config inject identical fault schedules.
	Seed int64
	// DropProb is the per-send probability that an edge frame is silently
	// dropped (the receiver never sees it).
	DropProb float64
	// DupProb is the per-send probability that an edge frame is sent twice.
	DupProb float64
	// DelayProb is the per-send probability that a send stalls for a
	// deterministic duration in (0, MaxDelay] before transmitting — a slow
	// link, not a dead one.
	DelayProb float64
	// MaxDelay bounds injected send stalls; zero disables delays even when
	// DelayProb is set.
	MaxDelay time.Duration
	// Freeze maps an edge to the 1-based send count after which every send
	// on it blocks until the transport closes — a hung rank as seen from one
	// link, or from one group member's sum edge (OpenGroup). Zero values and
	// absent edges never freeze.
	Freeze map[EdgeID]int
	// TearAfter, when positive, closes the wrapped transport after that many
	// edge sends across it (an n-member group all-reduce is n-1 sum-edge
	// sends) — a process dying mid-step. Zero never tears.
	TearAfter int64
}

// Chaos wraps a Transport and injects the faults scripted by its config:
// dropped, duplicated and delayed frames per edge, frozen edges, and a torn
// transport after a scripted send count. Every random draw comes from a
// per-edge rand.Rand seeded by (Seed, EdgeID), and sends on one edge are
// serialized by its owning stage goroutine, so each edge's fault schedule is
// a pure function of the seed — concurrency cannot reorder it. A group
// opened over Chaos (OpenGroup) is built from its faulted edges, so its
// contributions suffer the same faults as any other frame.
type Chaos struct {
	inner Transport
	cfg   ChaosConfig

	ops  atomic.Int64
	torn atomic.Bool

	mu     sync.Mutex
	closed chan struct{}
	done   bool
}

// NewChaos wraps inner with the scripted fault layer cfg.
func NewChaos(inner Transport, cfg ChaosConfig) *Chaos {
	return &Chaos{inner: inner, cfg: cfg, closed: make(chan struct{})}
}

// edgeSeed derives the deterministic per-edge stream seed from the root seed
// and the edge identity, splitmix-style so adjacent ids decorrelate.
func (c *Chaos) edgeSeed(id EdgeID) int64 {
	z := uint64(c.cfg.Seed)
	for _, v := range [4]uint64{uint64(id.Bound), uint64(id.Dir), uint64(id.S), uint64(id.Q)} {
		z += 0x9e3779b97f4a7c15 + v
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
	}
	return int64(z)
}

// OpenEdge opens the inner edge and attaches its fault stream.
func (c *Chaos) OpenEdge(id EdgeID, peer, cap int) (Edge, error) {
	e, err := c.inner.OpenEdge(id, peer, cap)
	if err != nil {
		return nil, err
	}
	return &chaosEdge{
		c:      c,
		id:     id,
		inner:  e,
		rng:    rand.New(rand.NewSource(c.edgeSeed(id))),
		freeze: c.cfg.Freeze[id],
	}, nil
}

// Close closes the wrapped transport.
func (c *Chaos) Close() error {
	c.mu.Lock()
	if !c.done {
		c.done = true
		close(c.closed)
	}
	c.mu.Unlock()
	return c.inner.Close()
}

// Torn reports whether the scripted TearAfter fault has fired.
func (c *Chaos) Torn() bool { return c.torn.Load() }

// op counts one edge send and fires the scripted tear when the count
// crosses TearAfter. It returns the injected error on the send that tears
// and on every send after it.
func (c *Chaos) op() error {
	if c.cfg.TearAfter <= 0 {
		return nil
	}
	n := c.ops.Add(1)
	if n < c.cfg.TearAfter {
		return nil
	}
	if c.torn.CompareAndSwap(false, true) {
		c.Close()
	}
	return fmt.Errorf("%w: transport torn after %d sends", ErrChaos, c.cfg.TearAfter)
}

// chaosEdge is one edge with its deterministic fault stream. The rng is
// consumed only by sends, which the owning stage goroutine serializes;
// receives pass through untouched.
type chaosEdge struct {
	c      *Chaos
	id     EdgeID
	inner  Edge
	rng    *rand.Rand
	sends  int
	freeze int
}

// send applies the scripted fault draw for one outbound frame, then forwards
// it via fwd (which sends on the inner edge). The draw order is fixed —
// freeze check, drop, dup, delay — so a schedule replays identically for a
// given seed.
func (e *chaosEdge) send(fwd func() error) error {
	if err := e.c.op(); err != nil {
		return err
	}
	e.sends++
	if e.freeze > 0 && e.sends > e.freeze {
		<-e.c.closed
		return fmt.Errorf("%w: edge %v frozen after %d sends", ErrChaos, e.id, e.freeze)
	}
	cfg := &e.c.cfg
	if cfg.DropProb > 0 && e.rng.Float64() < cfg.DropProb {
		return nil
	}
	dup := cfg.DupProb > 0 && e.rng.Float64() < cfg.DupProb
	if cfg.DelayProb > 0 && cfg.MaxDelay > 0 && e.rng.Float64() < cfg.DelayProb {
		d := time.Duration(1 + e.rng.Int63n(int64(cfg.MaxDelay)))
		select {
		case <-time.After(d):
		case <-e.c.closed:
			return ErrClosed
		}
	}
	if err := fwd(); err != nil {
		return err
	}
	if dup {
		return fwd()
	}
	return nil
}

// SendView degrades to SendCopy under chaos: a dropped or duplicated view of
// sender-owned storage would break the view lifetime contract, so the fault
// layer always stages a copy.
func (e *chaosEdge) SendView(m int, view *tensor.Matrix) error {
	return e.send(func() error { return e.inner.SendCopy(m, view) })
}

// SendCopy sends micro-batch m through the fault layer.
func (e *chaosEdge) SendCopy(m int, data *tensor.Matrix) error {
	return e.send(func() error { return e.inner.SendCopy(m, data) })
}

// Recv passes through to the inner edge.
func (e *chaosEdge) Recv(abort <-chan struct{}) (Msg, error) {
	return e.inner.Recv(abort)
}
