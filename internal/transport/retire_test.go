package transport

import (
	"testing"
	"time"

	"dapple/internal/tensor"
)

// TestRetireTwiceKeepsFloorMonotone retires the same mesh twice — once with
// a higher floor, once with a lower one — and checks the floor never
// regresses: the rebuilt edge must open at the highest floor ever retired to
// on both ranks, and carry traffic.
func TestRetireTwiceKeepsFloorMonotone(t *testing.T) {
	ts := mesh(t, 2)
	id := EdgeID{Bound: 0, Dir: Fwd, S: 0, Q: 0}
	if _, err := ts[0].OpenEdge(id, 1, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := ts[1].OpenEdge(id, 0, 2); err != nil {
		t.Fatal(err)
	}
	for _, tr := range ts {
		tr.Retire(7)
		tr.Retire(3) // stale lower floor: must not regress the fence
	}
	send, err := ts[0].OpenEdge(id, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	recv, err := ts[1].OpenEdge(id, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if e := send.(*tcpEdge).st.epoch; e != 7 {
		t.Fatalf("sender re-opened at epoch %d after Retire(7); Retire(3) regressed the floor", e)
	}
	if e := recv.(*tcpEdge).st.epoch; e != 7 {
		t.Fatalf("receiver re-opened at epoch %d after Retire(7); Retire(3) regressed the floor", e)
	}
	mat := tensor.New(1, 1)
	mat.Data[0] = 11
	if err := send.SendCopy(0, mat); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		msg, err := recv.Recv(make(chan struct{}))
		if err == nil && msg.Data.Data[0] != 11 {
			t.Error("rebuilt edge delivered wrong payload")
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("double-retired edge never delivered after rebuild")
	}
}

// TestRetireZeroInFlight retires a mesh with no open edges or groups and no
// frames in flight: the call must return immediately and leave the transport
// fully usable — the degenerate case of a recovery where the failure hit
// between steps.
func TestRetireZeroInFlight(t *testing.T) {
	ts := mesh(t, 2)
	done := make(chan struct{})
	go func() {
		ts[0].Retire(4)
		ts[1].Retire(4)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Retire with zero in-flight frames blocked")
	}
	send, err := ts[0].OpenEdge(EdgeID{Bound: 0, Dir: Fwd, S: 0, Q: 0}, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	recv, err := ts[1].OpenEdge(EdgeID{Bound: 0, Dir: Fwd, S: 0, Q: 0}, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	mat := tensor.New(1, 1)
	mat.Data[0] = 3
	if err := send.SendCopy(0, mat); err != nil {
		t.Fatal(err)
	}
	if _, err := recv.Recv(make(chan struct{})); err != nil {
		t.Fatal(err)
	}
}

// TestRetireWakesHeadOfStreamHold parks a reader pump in a head-of-stream
// hold — a frame for an edge generation the local endpoint never opened —
// and retires past it: the hold must wake, discard the retired frame and
// unwedge the connection, or every later frame on that connection (including
// control traffic) would be stuck behind it forever.
func TestRetireWakesHeadOfStreamHold(t *testing.T) {
	ts := mesh(t, 2)
	id := EdgeID{Bound: 0, Dir: Fwd, S: 0, Q: 0}
	send, err := ts[0].OpenEdge(id, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Rank 1 never opens the edge: the frame parks its reader pump at the
	// head of the stream, blocking everything behind it.
	mat := tensor.New(1, 1)
	mat.Data[0] = 9
	if err := send.SendCopy(0, mat); err != nil {
		t.Fatal(err)
	}
	if err := ts[0].SendControl(1, []byte("behind-the-hold")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ts[1].Session():
		t.Fatal("control message overtook the held edge frame")
	case <-time.After(50 * time.Millisecond):
		// Parked, as expected.
	}
	ts[1].Retire(5)
	select {
	case cm := <-ts[1].Session():
		if string(cm.Data) != "behind-the-hold" {
			t.Fatalf("unexpected control payload %q", cm.Data)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Retire did not wake the head-of-stream hold; connection wedged")
	}
}

// TestRetireRacesHeadOfStreamHold races Retire against frames arriving for a
// not-yet-opened generation: whichever side of the race each frame lands on,
// the connection must stay live and the post-retire generation must deliver
// exactly its own traffic.
func TestRetireRacesHeadOfStreamHold(t *testing.T) {
	ts := mesh(t, 2)
	id := EdgeID{Bound: 0, Dir: Fwd, S: 0, Q: 0}
	send, err := ts[0].OpenEdge(id, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Rank 1 never opened generation 1; frames stream in while it retires.
	go func() {
		mat := tensor.New(1, 1)
		for i := 0; i < 32; i++ {
			mat.Data[0] = float64(i)
			if err := send.SendCopy(i, mat); err != nil {
				return
			}
		}
	}()
	time.Sleep(time.Millisecond) // let some frames land pre-retire
	ts[1].Retire(3)
	ts[0].Retire(3)

	// Both sides rebuild at the common floor; only new-generation traffic
	// may come out.
	send2, err := ts[0].OpenEdge(id, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	recv2, err := ts[1].OpenEdge(id, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	fresh := tensor.New(1, 1)
	fresh.Data[0] = 1234
	if err := send2.SendCopy(99, fresh); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		msg, err := recv2.Recv(make(chan struct{}))
		if err == nil && (msg.M != 99 || msg.Data.Data[0] != 1234) {
			t.Errorf("post-retire edge delivered stale frame m=%d v=%v", msg.M, msg.Data.Data[0])
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("post-retire generation never delivered; retired hold wedged the stream")
	}
}
