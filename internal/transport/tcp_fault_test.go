package transport

import (
	"context"
	"errors"
	"testing"
	"time"

	"dapple/internal/tensor"
)

// TestDialRetryRespectsDeadline is the regression test for the unbounded
// dial-retry loop: a coordinator that never comes up must fail the dial when
// the caller's deadline expires, not retry forever.
func TestDialRetryRespectsDeadline(t *testing.T) {
	tr := NewTCP()
	tr.SetRank(1)
	defer tr.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := tr.DialRetry(ctx, 0, "127.0.0.1:1") // reserved port: refused or filtered
	if err == nil {
		t.Fatal("DialRetry to an unreachable address succeeded")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("DialRetry kept retrying %v past a 300ms deadline", elapsed)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("DialRetry error %v does not wrap the deadline", err)
	}
}

// TestDialRetryBoundedWithoutDeadline checks the fallback cap: even a context
// with no deadline must give up after the package retry limit.
func TestDialRetryBoundedWithoutDeadline(t *testing.T) {
	saved := defaultDialRetryLimit
	defaultDialRetryLimit = 300 * time.Millisecond
	defer func() { defaultDialRetryLimit = saved }()
	tr := NewTCP()
	tr.SetRank(1)
	defer tr.Close()
	start := time.Now()
	err := tr.DialRetry(context.Background(), 0, "127.0.0.1:1")
	if err == nil {
		t.Fatal("DialRetry to an unreachable address succeeded")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("DialRetry with no ctx deadline retried for %v, want the %v cap", elapsed, defaultDialRetryLimit)
	}
}

// waitDown blocks until rank appears in tr's down set.
func waitDown(t *testing.T, tr *TCP, rank int) {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		downs, wait := tr.PeerDowns()
		for _, r := range downs {
			if r == rank {
				return
			}
		}
		select {
		case <-wait:
		case <-deadline:
			t.Fatalf("rank %d never marked down; down set %v", rank, downs)
		}
	}
}

// TestPeerIsolationSurvivesDeadRank kills one rank of a 3-rank mesh running
// in isolation mode: the dead rank must be reported down with sends toward it
// failing ErrPeerDown, while the surviving pair's edge keeps carrying
// traffic — the property that lets a session re-plan instead of dying.
func TestPeerIsolationSurvivesDeadRank(t *testing.T) {
	ts := mesh(t, 3)
	ts[0].SetPeerIsolation(true)
	ts[1].SetPeerIsolation(true)

	id := EdgeID{Bound: 0, Dir: Fwd, S: 0, Q: 1}
	send, err := ts[0].OpenEdge(id, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	recv, err := ts[1].OpenEdge(id, 0, 4)
	if err != nil {
		t.Fatal(err)
	}

	ts[2].Close() // rank 2 dies

	waitDown(t, ts[0], 2)
	waitDown(t, ts[1], 2)
	if err := ts[0].DownErr(2); err == nil {
		t.Fatal("DownErr nil for a downed rank")
	}
	if err := ts[0].SendControl(2, []byte("x")); !errors.Is(err, ErrPeerDown) {
		t.Fatalf("send to dead rank returned %v, want ErrPeerDown", err)
	}

	// The surviving edge still works.
	mat := tensor.New(1, 3)
	mat.Data[2] = 7
	if err := send.SendCopy(0, mat); err != nil {
		t.Fatal(err)
	}
	msg, err := recv.Recv(make(chan struct{}))
	if err != nil {
		t.Fatal(err)
	}
	if msg.Data.Data[2] != 7 {
		t.Fatalf("survivor edge corrupted: %v", msg.Data.Data)
	}

	// A downed rank cannot rejoin the session.
	fresh := NewTCP()
	fresh.SetRank(2)
	defer fresh.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := fresh.Dial(ctx, 0, ts[0].Addr()); err == nil {
		if err := fresh.WaitPeers(ctx, []int{0}); err == nil {
			if err := fresh.SendControl(0, []byte("x")); err == nil {
				// The dial may land before rank 0 processes it; give the
				// reject a moment and confirm rank 0 still lists 2 as down.
				time.Sleep(50 * time.Millisecond)
			}
		}
	}
	if downs, _ := ts[0].PeerDowns(); len(downs) != 1 || downs[0] != 2 {
		t.Fatalf("down set after rejoin attempt: %v, want [2]", downs)
	}
}

// TestPeerIsolationUnblocksEnqueue checks a send blocked toward a rank that
// dies is unblocked with ErrPeerDown by ClosePeer — the liveness monitor's
// verdict must never leave a sender wedged on a full queue.
func TestPeerIsolationUnblocksEnqueue(t *testing.T) {
	ts := mesh(t, 2)
	ts[0].SetPeerIsolation(true)
	done := make(chan error, 1)
	go func() {
		// Flood the queue so some send eventually blocks; stop at the first
		// error.
		payload := make([]byte, 1<<16)
		for i := 0; i < 1<<20; i++ {
			if err := ts[0].SendControl(1, payload); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	time.Sleep(50 * time.Millisecond)
	ts[0].ClosePeer(1, errors.New("heartbeat timeout"))
	select {
	case err := <-done:
		if !errors.Is(err, ErrPeerDown) {
			t.Fatalf("blocked send returned %v, want ErrPeerDown", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("send toward downed rank never unblocked")
	}
}

// TestHeartbeatRefreshesLastHeard checks the liveness plane's raw signal:
// a heartbeat frame advances the receiver's last-heard clock for the sender.
func TestHeartbeatRefreshesLastHeard(t *testing.T) {
	ts := mesh(t, 2)
	before, ok := ts[1].LastHeard(0)
	if !ok {
		t.Fatal("no last-heard clock for a live peer")
	}
	time.Sleep(20 * time.Millisecond)
	if err := ts[0].SendHeartbeat(1); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(5 * time.Second)
	for {
		after, ok := ts[1].LastHeard(0)
		if ok && after.After(before) {
			return
		}
		select {
		case <-deadline:
			t.Fatal("heartbeat never advanced the last-heard clock")
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// TestRetireDiscardsStaleGenerations replays the recovery sequence on a
// 2-rank mesh: traffic from the torn generation must be discarded below the
// new epoch floor, blocked receives of the old generation must unblock, and
// the rebuilt edge must deliver only new-generation frames.
func TestRetireDiscardsStaleGenerations(t *testing.T) {
	ts := mesh(t, 2)
	id := EdgeID{Bound: 0, Dir: Fwd, S: 0, Q: 0}
	send, err := ts[0].OpenEdge(id, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	recv, err := ts[1].OpenEdge(id, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	// A receive of the old generation is in flight when the session tears.
	oldRecv := make(chan error, 1)
	go func() {
		_, err := recv.Recv(make(chan struct{}))
		oldRecv <- err
	}()

	// Rank 0 sends a stale frame, then both ranks retire to floor 5 —
	// the frame is generation 1 < 5 and must be dropped, not delivered.
	stale := tensor.New(1, 1)
	stale.Data[0] = 666
	if err := send.SendCopy(0, stale); err != nil {
		t.Fatal(err)
	}
	const floor = 5
	ts[0].Retire(floor)
	ts[1].Retire(floor)
	select {
	case err := <-oldRecv:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("old-generation recv returned %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("old-generation recv never unblocked after Retire")
	}

	// Survivors rebuild: both sides re-open and traffic flows in the new
	// generation only.
	send2, err := ts[0].OpenEdge(id, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	recv2, err := ts[1].OpenEdge(id, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	fresh := tensor.New(1, 1)
	fresh.Data[0] = 42
	if err := send2.SendCopy(3, fresh); err != nil {
		t.Fatal(err)
	}
	msg, err := recv2.Recv(make(chan struct{}))
	if err != nil {
		t.Fatal(err)
	}
	if msg.M != 3 || msg.Data.Data[0] != 42 {
		t.Fatalf("rebuilt edge delivered stale traffic: m=%d data=%v", msg.M, msg.Data.Data)
	}
}

// TestRetireAlignsEpochsAcrossUnevenHistories opens an edge a different
// number of times on each rank before the tear: after Retire with a common
// floor both sides must land on the same epoch, or the rebuilt pipeline
// would hold frames forever.
func TestRetireAlignsEpochsAcrossUnevenHistories(t *testing.T) {
	ts := mesh(t, 2)
	id := EdgeID{Bound: 0, Dir: Fwd, S: 0, Q: 0}
	// Rank 0 saw 3 geometries, rank 1 only 1.
	for i := 0; i < 3; i++ {
		if _, err := ts[0].OpenEdge(id, 1, 2); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ts[1].OpenEdge(id, 0, 2); err != nil {
		t.Fatal(err)
	}
	const floor = 10
	ts[0].Retire(floor)
	ts[1].Retire(floor)
	send, err := ts[0].OpenEdge(id, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	recv, err := ts[1].OpenEdge(id, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	mat := tensor.New(1, 1)
	mat.Data[0] = 1
	if err := send.SendCopy(0, mat); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := recv.Recv(make(chan struct{}))
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("epochs diverged across ranks: frame held forever")
	}
}

// TestGroupReopen re-opens a collective group (the survivor rebuild path,
// where membership shrinks) and checks the new generation's all-reduce works
// and a blocked old-generation exchange unblocks.
func TestGroupReopen(t *testing.T) {
	ts := mesh(t, 2)
	members := []int{0, 1}
	const size = 8
	g0, err := ts[0].OpenGroup(1, members, size)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ts[1].OpenGroup(1, members, size); err != nil {
		t.Fatal(err)
	}
	// Rank 0 starts an exchange rank 1 never joins — it must unblock when
	// the generation is retired.
	hung := make(chan error, 1)
	go func() {
		buf := make([]float64, size)
		hung <- g0.AllReduce(buf, make(chan struct{}))
	}()
	time.Sleep(20 * time.Millisecond)
	ts[0].Retire(2)
	ts[1].Retire(2)
	select {
	case err := <-hung:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("old-generation all-reduce returned %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("old-generation all-reduce never unblocked after Retire")
	}

	groups := make([]Group, 2)
	for r := range ts {
		g, err := ts[r].OpenGroup(1, members, size)
		if err != nil {
			t.Fatal(err)
		}
		groups[r] = g
	}
	bufs := randBufs(2, size, 77)
	want := rankOrderSum(bufs)
	errs := make(chan error, 2)
	for r := 0; r < 2; r++ {
		go func(r int) { errs <- groups[r].AllReduce(bufs[r], make(chan struct{})) }(r)
	}
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("re-opened group all-reduce hung")
		}
	}
	for r := 0; r < 2; r++ {
		for i := range want {
			if bufs[r][i] != bufs[0][i] {
				t.Fatalf("re-opened group not bit-identical at %d", i)
			}
		}
	}
}
