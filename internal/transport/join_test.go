package transport

import (
	"context"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// joinListener builds a listening transport with rank 0 that accepts joins.
func joinListener(t *testing.T) *TCP {
	t.Helper()
	tr, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tr.SetRank(0)
	tr.SetAcceptJoins(true)
	t.Cleanup(func() { tr.Close() })
	return tr
}

// TestJoinGrantAdmitsFreshRank runs the membership handshake end to end: the
// joiner's request payload must surface on Joins, the grant must carry the
// reply payload and both ranks, and the admitted connection must carry
// control traffic in both directions like any launch-time peer.
func TestJoinGrantAdmitsFreshRank(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	coord := joinListener(t)

	granted := make(chan error, 1)
	go func() {
		select {
		case j := <-coord.Joins():
			if string(j.Payload) != "hello-join" {
				j.Reject("bad payload")
				granted <- nil
				return
			}
			granted <- j.Grant(5, []byte("welcome"))
		case <-ctx.Done():
			granted <- ctx.Err()
		}
	}()

	joiner := NewTCP()
	defer joiner.Close()
	rank, granter, reply, err := joiner.DialJoin(ctx, coord.Addr(), []byte("hello-join"))
	if err != nil {
		t.Fatal(err)
	}
	if rank != 5 || granter != 0 {
		t.Fatalf("granted rank %d from rank %d, want 5 from 0", rank, granter)
	}
	if string(reply) != "welcome" {
		t.Fatalf("grant reply %q, want %q", reply, "welcome")
	}
	if joiner.Rank() != 5 {
		t.Fatalf("joiner rank %d after grant, want 5", joiner.Rank())
	}
	if err := <-granted; err != nil {
		t.Fatalf("Grant: %v", err)
	}

	// The admitted connection is a full peer link: control traffic flows both
	// ways under the granted ranks.
	if err := joiner.SendControl(0, []byte("up")); err != nil {
		t.Fatal(err)
	}
	select {
	case cm := <-coord.Session():
		if cm.Peer != 5 || string(cm.Data) != "up" {
			t.Fatalf("coordinator got %q from rank %d, want %q from 5", cm.Data, cm.Peer, "up")
		}
	case <-ctx.Done():
		t.Fatal("coordinator never received the joiner's control message")
	}
	if err := coord.SendControl(5, []byte("down")); err != nil {
		t.Fatal(err)
	}
	select {
	case cm := <-joiner.Session():
		if cm.Peer != 0 || string(cm.Data) != "down" {
			t.Fatalf("joiner got %q from rank %d, want %q from 0", cm.Data, cm.Peer, "down")
		}
	case <-ctx.Done():
		t.Fatal("joiner never received the coordinator's control message")
	}
}

// TestJoinRejectedWhenNotAccepting checks the default admission policy: a
// listener that never enabled joins must reject the handshake on the wire
// with a reason, not hang or accept silently.
func TestJoinRejectedWhenNotAccepting(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	coord, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	coord.SetRank(0)
	defer coord.Close()

	joiner := NewTCP()
	defer joiner.Close()
	_, _, _, err = joiner.DialJoin(ctx, coord.Addr(), []byte("x"))
	if err == nil {
		t.Fatal("DialJoin succeeded against a listener that does not accept joins")
	}
	if !strings.Contains(err.Error(), "rejected") {
		t.Fatalf("DialJoin error %v does not report the rejection", err)
	}
}

// TestJoinExplicitReject checks the session layer's rejection path (version
// mismatch, bad payload): the reason must surface in the joiner's error.
func TestJoinExplicitReject(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	coord := joinListener(t)
	go func() {
		select {
		case j := <-coord.Joins():
			j.Reject("version 9, want 2")
		case <-ctx.Done():
		}
	}()
	joiner := NewTCP()
	defer joiner.Close()
	_, _, _, err := joiner.DialJoin(ctx, coord.Addr(), []byte("x"))
	if err == nil {
		t.Fatal("DialJoin succeeded after an explicit Reject")
	}
	if !strings.Contains(err.Error(), "version 9, want 2") {
		t.Fatalf("DialJoin error %v does not carry the rejection reason", err)
	}
}

// TestDialBackoffSchedulePinned pins DialRetry's backoff schedule from a
// seed: the schedule must be reproducible, every delay must stay inside the
// jittered envelope of its exponential step, and distinct seeds must walk
// distinct schedules (the anti-thundering-herd property).
func TestDialBackoffSchedulePinned(t *testing.T) {
	schedule := func(seed int64, n int) []time.Duration {
		rng := rand.New(rand.NewSource(seed))
		ds := make([]time.Duration, n)
		for k := range ds {
			ds[k] = dialBackoff(rng, k)
		}
		return ds
	}

	const n = 8
	a := schedule(42, n)
	b := schedule(42, n)
	for k := range a {
		if a[k] != b[k] {
			t.Fatalf("attempt %d: same seed gave %v then %v", k, a[k], b[k])
		}
	}

	// Every delay sits inside the jitter envelope [0.75, 1.25) of its
	// exponential step, capped at dialBackoffMax.
	for k, d := range a {
		base := dialBackoffBase << k
		if base > dialBackoffMax {
			base = dialBackoffMax
		}
		lo := time.Duration(0.75 * float64(base))
		hi := time.Duration(1.25 * float64(base))
		if d < lo || d >= hi {
			t.Fatalf("attempt %d: delay %v outside jitter envelope [%v, %v)", k, d, lo, hi)
		}
	}
	// The exponential steps must actually grow until the cap.
	if a[0] >= time.Duration(1.25*float64(dialBackoffBase)) {
		t.Fatalf("first delay %v exceeds the base envelope", a[0])
	}
	if a[n-1] < time.Duration(0.75*float64(dialBackoffMax)) {
		t.Fatalf("late delay %v never reached the %v cap's envelope", a[n-1], dialBackoffMax)
	}

	// Distinct (rank, peer, addr) identities derive distinct seeds, which
	// must produce distinct schedules somewhere in the first attempts.
	s1 := dialSeed(1, 0, "127.0.0.1:9999")
	s2 := dialSeed(2, 0, "127.0.0.1:9999")
	if s1 == s2 {
		t.Fatal("different ranks derived the same dial seed")
	}
	c := schedule(s1, n)
	d := schedule(s2, n)
	same := true
	for k := range c {
		if c[k] != d[k] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical backoff schedules")
	}
}
