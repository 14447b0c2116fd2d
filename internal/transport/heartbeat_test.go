package transport

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// hbTick is the liveness tests' time unit: heartbeat periods and silence
// budgets are multiples of it.
const hbTick = 15 * time.Millisecond

// downWithin reports whether tr marks rank down within budget.
func downWithin(tr *TCP, rank int, budget time.Duration) bool {
	deadline := time.After(budget)
	for {
		downs, latch := tr.PeerDowns()
		for _, r := range downs {
			if r == rank {
				return true
			}
		}
		select {
		case <-latch:
		case <-deadline:
			return false
		}
	}
}

// TestHeartbeatLiveness is the liveness plane's table test: a watcher
// judges a peer that is (a) hung — connected but totally silent, (b) alive
// but heartbeating far slower than the watcher, and (c) busy streaming
// control frames without sending a single heartbeat. Only the hung peer may
// be declared dead: any byte is liveness evidence, so slowness within the
// budget and traffic in place of heartbeats never produce a false positive.
func TestHeartbeatLiveness(t *testing.T) {
	cases := []struct {
		name      string
		beatEvery time.Duration // peer's heartbeat period; 0 sends none
		busy      bool          // peer streams a control frame every tick
		timeout   time.Duration // watcher's silence budget
		wantDown  bool
	}{
		{name: "detects-hung-rank", timeout: 10 * hbTick, wantDown: true},
		{name: "no-false-positive-slow-but-alive", beatEvery: 4 * hbTick, timeout: 25 * hbTick},
		{name: "no-false-positive-busy-without-heartbeats", busy: true, timeout: 25 * hbTick},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ts := mesh(t, 2)
			watcher, peer := ts[0], ts[1]
			// The watcher's reader pump is already parked in a socket read:
			// SetHeartbeat must arm it, or a hung peer is never judged.
			watcher.SetHeartbeat(hbTick, tc.timeout)
			if tc.beatEvery > 0 {
				peer.SetHeartbeat(tc.beatEvery, 0)
			}
			stop := make(chan struct{})
			defer close(stop)
			go drain(watcher, stop)
			if tc.busy {
				go func() {
					tick := time.NewTicker(hbTick)
					defer tick.Stop()
					for {
						select {
						case <-tick.C:
							if peer.SendControl(0, []byte("busy")) != nil {
								return
							}
						case <-stop:
							return
						}
					}
				}()
			}
			// Budget: comfortably past the timeout so a verdict that is
			// going to fire has fired.
			if down := downWithin(watcher, 1, tc.timeout+20*hbTick); down != tc.wantDown {
				t.Fatalf("rank 1 down = %v, want %v (cause %v)", down, tc.wantDown, watcher.DownErr(1))
			}
			// The verdict is per peer: the watcher's transport survives.
			if err := watcher.Err(); err != nil {
				t.Fatalf("watcher transport died: %v", err)
			}
			if tc.wantDown && !strings.Contains(watcher.DownErr(1).Error(), "heartbeat timeout") {
				t.Fatalf("downed rank's cause %v does not name its silence", watcher.DownErr(1))
			}
		})
	}
}

// drain consumes tr's session inbox until stop closes, so its reader pump
// is never parked on a full inbox.
func drain(tr *TCP, stop <-chan struct{}) {
	for {
		select {
		case <-tr.Session():
		case <-stop:
			return
		}
	}
}

// TestHeartbeatSilenceOnlyWhileReading pins where silence is timed: a judge
// whose reader pump is parked on a full Session inbox is not waiting on its
// peer, so a silent peer must survive any number of timeouts; once the
// inbox drains and the pump reads again, the verdict fires, but no sooner
// than one full timeout after the pump resumed.
func TestHeartbeatSilenceOnlyWhileReading(t *testing.T) {
	ts := mesh(t, 2)
	judge, peer := ts[0], ts[1]
	timeout := 6 * hbTick
	// Fill the judge's inbox and park its pump on one frame more.
	frames := cap(judge.Session()) + 1
	for i := 0; i < frames; i++ {
		if err := peer.SendControl(0, []byte("fill")); err != nil {
			t.Fatal(err)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); len(judge.Session()) < cap(judge.Session()); {
		if time.Now().After(deadline) {
			t.Fatalf("inbox holds %d of %d frames", len(judge.Session()), cap(judge.Session()))
		}
		time.Sleep(time.Millisecond)
	}
	judge.SetHeartbeat(hbTick, timeout)
	if downWithin(judge, 1, 3*timeout) {
		t.Fatalf("peer judged while the judge's pump was parked: %v", judge.DownErr(1))
	}
	resumed := time.Now()
	for i := 0; i < frames; i++ {
		<-judge.Session()
	}
	if downWithin(judge, 1, timeout-2*hbTick) {
		t.Fatalf("peer judged %v after the pump resumed, before the %v timeout", time.Since(resumed), timeout)
	}
	if !downWithin(judge, 1, timeout+20*hbTick) {
		t.Fatal("silent peer never judged once the pump read again")
	}
}

// TestHeartbeatPastStalledPeer is the regression test for heartbeats that
// queue behind a stalled peer: rank 1 stops draining its inbox while rank 0
// floods it, so rank 0's queue toward rank 1 fills. Rank 0's heartbeats to
// rank 2 must keep flowing, or rank 2 declares the healthy rank 0 dead.
func TestHeartbeatPastStalledPeer(t *testing.T) {
	ts := mesh(t, 3)
	var sent atomic.Int64
	flooded := make(chan struct{})
	go func() {
		defer close(flooded)
		payload := make([]byte, 16<<10)
		for ts[0].SendControl(1, payload) == nil {
			sent.Add(1)
		}
	}()
	// Wait until the flood stalls: rank 1's inbox, both socket buffers and
	// rank 0's writer queue toward rank 1 are full.
	for deadline := time.Now().Add(10 * time.Second); ; {
		n := sent.Load()
		time.Sleep(5 * hbTick)
		if sent.Load() == n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the flood toward rank 1 never stalled")
		}
	}
	ts[0].SetHeartbeat(hbTick, 0)
	ts[1].SetHeartbeat(hbTick, 0)
	ts[2].SetHeartbeat(hbTick, 10*hbTick)
	stop := make(chan struct{})
	defer close(stop)
	go drain(ts[2], stop)
	if downWithin(ts[2], 0, 40*hbTick) {
		t.Fatalf("rank 2 downed healthy rank 0: %v", ts[2].DownErr(0))
	}
	ts[0].Close()
	<-flooded
}
