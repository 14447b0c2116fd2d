package train

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dapple/internal/transport"
)

// heartbeater is the liveness plane of one session rank: every interval it
// sends a heartbeat frame to each live peer and checks each peer's
// last-heard clock; a peer silent past timeout is declared dead through the
// transport's ClosePeer, which under peer isolation marks only that rank
// down (waking the session's recovery) and under fail-stop semantics ends
// the session — exactly the failure semantics the session was configured
// with. Any received frame counts as liveness evidence, so a rank that is
// slow but still streaming tensors is never falsely declared dead.
type heartbeater struct {
	t        *transport.TCP
	interval time.Duration
	timeout  time.Duration
	send     func(peer int) error                 // heartbeat sender, injectable for fault tests
	verdict  func(peer int, silent time.Duration) // death verdict, injectable

	// suspended pauses death verdicts while a reconfig is in flight: a rank
	// busy restoring a large checkpoint sends no frames, and must not be
	// declared dead for it. Heartbeats keep flowing while suspended (this
	// rank still proves its own liveness); only the verdicts pause.
	suspended atomic.Bool
	// resumedAt is the unix-nano instant of the last Resume: after a
	// suspension every peer's silence clock restarts from here, so time
	// spent suspended can never count toward a timeout.
	resumedAt atomic.Int64

	stop chan struct{}
	wg   sync.WaitGroup
}

// startHeartbeater launches the liveness loop over every live connection.
// interval must be positive; timeout <= 0 disables death verdicts (send-only
// mode, for ranks that only need to prove their own liveness).
func startHeartbeater(t *transport.TCP, interval, timeout time.Duration) *heartbeater {
	h := &heartbeater{
		t: t, interval: interval, timeout: timeout,
		send: t.SendHeartbeat,
		stop: make(chan struct{}),
	}
	h.verdict = func(peer int, silent time.Duration) {
		t.ClosePeer(peer, fmt.Errorf("train: rank %d heartbeat-silent for %v (timeout %v)", peer, silent, timeout))
	}
	h.wg.Add(1)
	go h.run()
	return h
}

// run is the liveness loop body.
func (h *heartbeater) run() {
	defer h.wg.Done()
	tick := time.NewTicker(h.interval)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			h.beat()
		case <-h.stop:
			return
		case <-h.t.Done():
			return
		}
	}
}

// beat sends one round of heartbeats and applies the timeout verdict.
func (h *heartbeater) beat() {
	now := time.Now()
	suspended := h.suspended.Load()
	resumed := time.Unix(0, h.resumedAt.Load())
	for _, p := range h.t.Peers() {
		h.send(p) //nolint:errcheck // a failed send is itself liveness evidence the reader pump reports
		if h.timeout <= 0 || suspended {
			continue
		}
		last, ok := h.t.LastHeard(p)
		if !ok {
			continue // already down or never connected; not this plane's call
		}
		// Silence accumulated during a suspension doesn't count: the clock
		// restarts at the last Resume.
		if last.Before(resumed) {
			last = resumed
		}
		if silent := now.Sub(last); silent > h.timeout {
			h.verdict(p, silent)
		}
	}
}

// Suspend pauses death verdicts until Resume — called while a reconfig is in
// flight, when peers legitimately go quiet to rebuild state. Idempotent;
// heartbeat sends continue throughout.
func (h *heartbeater) Suspend() {
	if h == nil {
		return
	}
	h.suspended.Store(true)
}

// Resume re-arms death verdicts. Every peer's silence clock restarts now, so
// a peer must be silent for a full fresh timeout after the reconfig before
// it can be declared dead.
func (h *heartbeater) Resume() {
	if h == nil {
		return
	}
	h.resumedAt.Store(time.Now().UnixNano())
	h.suspended.Store(false)
}

// Stop ends the liveness loop and waits for it to exit.
func (h *heartbeater) Stop() {
	select {
	case <-h.stop:
	default:
		close(h.stop)
	}
	h.wg.Wait()
}
