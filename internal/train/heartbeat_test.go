package train

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"dapple/internal/transport"
)

// hbPair wires a two-rank loopback mesh with peer isolation on, so a
// heartbeat death verdict downs one rank instead of the transport.
func hbPair(t *testing.T) (a, b *transport.TCP) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	a, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	a.SetRank(0)
	b = transport.NewTCP()
	b.SetRank(1)
	t.Cleanup(func() { a.Close(); b.Close() })
	if err := b.Dial(ctx, 0, a.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := a.WaitPeers(ctx, []int{1}); err != nil {
		t.Fatal(err)
	}
	a.SetPeerIsolation(true)
	b.SetPeerIsolation(true)
	return a, b
}

// waitPeerDown reports whether tr marks rank down within the wait budget.
func waitPeerDown(t *testing.T, tr *transport.TCP, rank int, budget time.Duration) bool {
	t.Helper()
	deadline := time.Now().Add(budget)
	for {
		downs, latch := tr.PeerDowns()
		for _, r := range downs {
			if r == rank {
				return true
			}
		}
		remain := time.Until(deadline)
		if remain <= 0 {
			return false
		}
		select {
		case <-latch:
		case <-time.After(remain):
		}
	}
}

// TestHeartbeatLiveness is the liveness plane's table test: a watcher rank
// runs the real heartbeater against a peer that is (a) hung — connected but
// totally silent, (b) alive but heartbeating far slower than the watcher,
// and (c) alive behind a chaotic link that drops half its heartbeats
// (seeded, deterministic schedule). Only the hung peer may be declared
// dead: any received frame is liveness evidence, so slowness and frame
// loss within the timeout budget never produce a false positive.
func TestHeartbeatLiveness(t *testing.T) {
	const tick = 15 * time.Millisecond
	cases := []struct {
		name      string
		beatEvery time.Duration // peer's heartbeat interval; 0 is a hung peer
		dropProb  float64       // chaos: fraction of the peer's heartbeats lost
		timeout   time.Duration // watcher's silence budget
		wantDown  bool
	}{
		{name: "detects-hung-rank", beatEvery: 0, timeout: 10 * tick, wantDown: true},
		{name: "no-false-positive-slow-but-alive", beatEvery: 4 * tick, timeout: 25 * tick, wantDown: false},
		{name: "no-false-positive-under-frame-drop", beatEvery: tick, dropProb: 0.5, timeout: 25 * tick, wantDown: false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, b := hbPair(t)
			watcher := startHeartbeater(a, tick, tc.timeout)
			defer watcher.Stop()
			if tc.beatEvery > 0 {
				// The peer proves its liveness through a (possibly lossy)
				// link: the drop schedule is drawn from a seeded source, so
				// the surviving-heartbeat pattern is reproducible.
				rng := rand.New(rand.NewSource(42))
				peer := &heartbeater{
					t: b, interval: tc.beatEvery,
					send: func(rank int) error {
						if rng.Float64() < tc.dropProb {
							return nil
						}
						return b.SendHeartbeat(rank)
					},
					verdict: func(int, time.Duration) {},
					stop:    make(chan struct{}),
				}
				peer.wg.Add(1)
				go peer.run()
				defer peer.Stop()
			}
			// Budget: comfortably past the timeout so a verdict that is
			// going to fire has fired, without stretching the no-verdict
			// cases into flakiness.
			down := waitPeerDown(t, a, 1, tc.timeout+20*tick)
			if down != tc.wantDown {
				t.Fatalf("rank 1 down = %v, want %v", down, tc.wantDown)
			}
			// The verdict is per-peer: the watcher's transport itself must
			// survive either outcome.
			if err := a.Err(); err != nil {
				t.Fatalf("watcher transport died: %v", err)
			}
			if tc.wantDown {
				if err := a.DownErr(1); err == nil {
					t.Fatal("downed rank has no recorded cause")
				}
			}
		})
	}
}

// TestHeartbeatSuspendDuringReconfig is the regression test for the
// false-positive window during re-plans: a hung peer must draw no verdict
// while the heartbeater is suspended — no matter how far past the timeout the
// silence stretches — and after Resume the silence clock must restart, so the
// verdict fires only a full fresh timeout later. Without the resume-time
// clamp, the pre-suspension silence would kill the peer on the first beat
// after Resume, defeating the suspension entirely.
func TestHeartbeatSuspendDuringReconfig(t *testing.T) {
	const tick = 15 * time.Millisecond
	timeout := 6 * tick
	a, _ := hbPair(t)
	watcher := startHeartbeater(a, tick, timeout)
	defer watcher.Stop()

	// Suspend before any silence accumulates, then wait far past the
	// timeout: the hung peer must stay live the whole while.
	watcher.Suspend()
	if down := waitPeerDown(t, a, 1, 3*timeout); down {
		t.Fatal("suspended heartbeater declared a peer dead mid-reconfig")
	}

	// Resume restarts the clock: the peer is already 3 timeouts silent, but
	// must NOT be downed before a fresh timeout elapses from the resume.
	watcher.Resume()
	if down := waitPeerDown(t, a, 1, timeout/2); down {
		t.Fatal("pre-suspension silence counted toward the timeout after Resume")
	}
	// ... and with the peer still hung, the verdict must eventually fire.
	if down := waitPeerDown(t, a, 1, timeout+20*tick); !down {
		t.Fatal("hung peer never declared dead after Resume")
	}
}
