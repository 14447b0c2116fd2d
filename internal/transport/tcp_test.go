package transport

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"dapple/internal/tensor"
)

// mesh builds n fully connected loopback transports (rank r dials every
// lower rank) and registers cleanup.
func mesh(t *testing.T, n int) []*TCP {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	ts := make([]*TCP, n)
	for r := 0; r < n; r++ {
		tr, err := ListenTCP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		tr.SetRank(r)
		ts[r] = tr
		t.Cleanup(func() { tr.Close() })
	}
	for r := 1; r < n; r++ {
		for q := 0; q < r; q++ {
			if err := ts[r].Dial(ctx, q, ts[q].Addr()); err != nil {
				t.Fatal(err)
			}
		}
	}
	for r := 0; r < n; r++ {
		peers := make([]int, 0, n-1)
		for q := 0; q < n; q++ {
			if q != r {
				peers = append(peers, q)
			}
		}
		if err := ts[r].WaitPeers(ctx, peers); err != nil {
			t.Fatal(err)
		}
	}
	return ts
}

func TestTCPEdgeRoundTrip(t *testing.T) {
	ts := mesh(t, 2)
	id := EdgeID{Bound: 0, Dir: Fwd, S: 0, Q: 1}
	const m = 4
	send, err := ts[0].OpenEdge(id, 1, m)
	if err != nil {
		t.Fatal(err)
	}
	recv, err := ts[1].OpenEdge(id, 0, m)
	if err != nil {
		t.Fatal(err)
	}
	abort := make(chan struct{})
	for step := 0; step < 3; step++ {
		for mb := 0; mb < m; mb++ {
			mat := tensor.New(3, 5)
			for i := range mat.Data {
				mat.Data[i] = float64(step*100 + mb*10 + i)
			}
			if mb%2 == 0 {
				err = send.SendView(mb, mat)
			} else {
				err = send.SendCopy(mb, mat)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		for mb := 0; mb < m; mb++ {
			msg, err := recv.Recv(abort)
			if err != nil {
				t.Fatal(err)
			}
			if msg.M != mb {
				t.Fatalf("step %d: got micro-batch %d, want %d", step, msg.M, mb)
			}
			if msg.Data.Rows != 3 || msg.Data.Cols != 5 {
				t.Fatalf("shape %dx%d", msg.Data.Rows, msg.Data.Cols)
			}
			for i, v := range msg.Data.Data {
				if v != float64(step*100+mb*10+i) {
					t.Fatalf("step %d mb %d element %d: %g", step, mb, i, v)
				}
			}
			Recycle(msg.Free, msg.Data)
		}
	}
	st := ts[0].Stats()
	if st.FramesSent < 3*m || st.BytesSent == 0 {
		t.Fatalf("sender stats not accounted: %+v", st)
	}
}

// TestTCPEdgeHeldUntilOpened sends before the receiver has opened the edge:
// the frames must be held at the head of the stream and delivered once the
// receiver opens — the transient that occurs whenever peers rebuild step
// geometry at slightly different times.
func TestTCPEdgeHeldUntilOpened(t *testing.T) {
	ts := mesh(t, 2)
	id := EdgeID{Bound: 1, Dir: Bwd, S: 2, Q: 0}
	send, err := ts[0].OpenEdge(id, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	mat := tensor.New(2, 2)
	mat.Data = []float64{1, 2, 3, 4}
	if err := send.SendCopy(0, mat); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // let the frame reach the unopened peer
	recv, err := ts[1].OpenEdge(id, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	msg, err := recv.Recv(make(chan struct{}))
	if err != nil {
		t.Fatal(err)
	}
	if msg.Data.Data[3] != 4 {
		t.Fatalf("held frame corrupted: %v", msg.Data.Data)
	}
}

// TestTCPEdgeReopen re-opens an edge on both sides (a geometry change
// between steps) and checks the new generation works and epochs advanced.
func TestTCPEdgeReopen(t *testing.T) {
	ts := mesh(t, 2)
	id := EdgeID{Bound: 0, Dir: Fwd, S: 0, Q: 0}
	abort := make(chan struct{})
	for gen := 0; gen < 3; gen++ {
		send, err := ts[0].OpenEdge(id, 1, 2)
		if err != nil {
			t.Fatal(err)
		}
		recv, err := ts[1].OpenEdge(id, 0, 2)
		if err != nil {
			t.Fatal(err)
		}
		mat := tensor.New(1, gen+1)
		for i := range mat.Data {
			mat.Data[i] = float64(gen)
		}
		if err := send.SendView(0, mat); err != nil {
			t.Fatal(err)
		}
		msg, err := recv.Recv(abort)
		if err != nil {
			t.Fatal(err)
		}
		if msg.Data.Cols != gen+1 || msg.Data.Data[0] != float64(gen) {
			t.Fatalf("generation %d received %dx%d %v", gen, msg.Data.Rows, msg.Data.Cols, msg.Data.Data)
		}
	}
}

func TestTCPControlAndTensors(t *testing.T) {
	ts := mesh(t, 2)
	if err := ts[0].SendControl(1, []byte(`{"kind":"hello"}`)); err != nil {
		t.Fatal(err)
	}
	mat := tensor.New(2, 3)
	for i := range mat.Data {
		mat.Data[i] = float64(i) * 1.5
	}
	if err := ts[0].SendTensor(1, 2, 9, mat); err != nil {
		t.Fatal(err)
	}
	select {
	case cm := <-ts[1].Ctrl():
		if cm.Peer != 0 || string(cm.Data) != `{"kind":"hello"}` {
			t.Fatalf("control mismatch: %+v", cm)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("control frame never arrived")
	}
	select {
	case tm := <-ts[1].Tensors():
		if tm.Peer != 0 || tm.Class != 2 || tm.Index != 9 || tm.Data.Data[5] != 7.5 {
			t.Fatalf("tensor mismatch: %+v", tm)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("tensor frame never arrived")
	}
}

func TestTCPGroupAllReduce(t *testing.T) {
	const n, size = 3, 41
	ts := mesh(t, n)
	members := []int{0, 1, 2}
	groups := make([]Group, n)
	for r := range ts {
		g, err := ts[r].OpenGroup(5, members, size)
		if err != nil {
			t.Fatal(err)
		}
		groups[r] = g
	}
	abort := make(chan struct{})
	for round := 0; round < 4; round++ {
		bufs := randBufs(n, size, int64(round+100))
		want := rankOrderSum(bufs)
		var wg sync.WaitGroup
		errs := make([]error, n)
		for r := 0; r < n; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				errs[r] = groups[r].AllReduce(bufs[r], abort)
			}(r)
		}
		wg.Wait()
		for r := 0; r < n; r++ {
			if errs[r] != nil {
				t.Fatal(errs[r])
			}
			for i := range want {
				if math.Abs(bufs[r][i]-want[i]) > 1e-12*math.Max(1, math.Abs(want[i])) {
					t.Fatalf("round %d rank %d element %d: %g want %g", round, r, i, bufs[r][i], want[i])
				}
				if bufs[r][i] != bufs[0][i] {
					t.Fatalf("round %d: ranks not bit-identical at %d", round, i)
				}
			}
		}
	}
}

func TestTCPCloseUnblocksRecv(t *testing.T) {
	ts := mesh(t, 2)
	recv, err := ts[1].OpenEdge(EdgeID{Bound: 0, Dir: Fwd, S: 0, Q: 0}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := recv.Recv(make(chan struct{}))
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	ts[1].Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("recv returned %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("recv never unblocked after Close")
	}
}

func TestTCPRecvAbort(t *testing.T) {
	ts := mesh(t, 2)
	recv, err := ts[1].OpenEdge(EdgeID{Bound: 0, Dir: Fwd, S: 0, Q: 0}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	abort := make(chan struct{})
	close(abort)
	if _, err := recv.Recv(abort); !errors.Is(err, ErrAborted) {
		t.Fatalf("recv returned %v, want ErrAborted", err)
	}
}
