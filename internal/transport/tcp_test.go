package transport

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"dapple/internal/tensor"
)

// mesh builds n fully connected loopback transports (rank r dials every
// lower rank) and registers cleanup.
func mesh(t testing.TB, n int) []*TCP {
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
	// The receiver can hold a batch before the sender's writer pump has
	// counted it; closing both transports stops every pump, so the counters
	// are final.
	for _, tr := range ts {
		tr.Close()
	}
	st := ts[0].Stats()
	if st.FramesSent < 3*m || st.BytesSent == 0 {
		t.Fatalf("sender stats not accounted: %+v", st)
	}
}

// BenchmarkTCPEdgeStream streams session_tcp's 256x64 activation blocks one
// way over a 2-rank loopback mesh: staging, encoding, the socket and
// decoding into the receiver's leased buffers, as one stage boundary sees
// them. Profile the wire path with
// go test -run '^$' -bench TCPEdgeStream -cpuprofile cpu.out ./internal/transport/
func BenchmarkTCPEdgeStream(b *testing.B) {
	ts := mesh(b, 2)
	id := EdgeID{Bound: 0, Dir: Fwd, S: 0, Q: 1}
	const inflight = 8
	send, err := ts[0].OpenEdge(id, 1, inflight)
	if err != nil {
		b.Fatal(err)
	}
	recv, err := ts[1].OpenEdge(id, 0, inflight)
	if err != nil {
		b.Fatal(err)
	}
	block := tensor.New(256, 64)
	b.SetBytes(int64(8 * len(block.Data)))
	abort := make(chan struct{})
	got := make(chan error, 1)
	b.ResetTimer()
	go func() {
		for i := 0; i < b.N; i++ {
			msg, err := recv.Recv(abort)
			if err != nil {
				got <- err
				return
			}
			Recycle(msg.Free, msg.Data)
		}
		got <- nil
	}()
	for i := 0; i < b.N; i++ {
		if err := send.SendCopy(i%inflight, block); err != nil {
			b.Fatal(err)
		}
	}
	if err := <-got; err != nil {
		b.Fatal(err)
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

// TestTCPControlAndTensors checks the session inbox: a control payload and
// an out-of-band tensor arrive intact with their routing fields, and an
// interleaved run of control frames, plain tensors and pooled tensors from
// one peer, across an epoch change, comes out in exactly the order it was
// sent, each frame with its kind and epoch.
func TestTCPControlAndTensors(t *testing.T) {
	ts := mesh(t, 2)
	next := func() SessionMsg {
		t.Helper()
		select {
		case sm := <-ts[1].Session():
			return sm
		case <-time.After(5 * time.Second):
			t.Fatal("session frame never arrived")
			return SessionMsg{}
		}
	}
	if err := ts[0].SendControl(1, []byte(`{"kind":"hello"}`)); err != nil {
		t.Fatal(err)
	}
	mat := tensor.New(2, 3)
	for i := range mat.Data {
		mat.Data[i] = float64(i) * 1.5
	}
	if err := ts[0].SendTensor(1, 2, 9, mat, nil); err != nil {
		t.Fatal(err)
	}
	if cm := next(); cm.Peer != 0 || cm.Tensor != nil || string(cm.Data) != `{"kind":"hello"}` {
		t.Fatalf("control mismatch: %+v", cm)
	}
	if tm := next(); tm.Peer != 0 || tm.Data != nil || tm.Class != 2 || tm.Index != 9 || tm.Tensor.Data[5] != 7.5 {
		t.Fatalf("tensor mismatch: %+v", tm)
	}

	// The interleaved run: i names each frame, as its control payload or
	// as its tensor's index and only value.
	type frame struct {
		control, pooled bool
		epoch           uint32
	}
	var sent []frame
	free := make(chan *tensor.Matrix, 4)
	for i := 0; i < 60; i++ {
		if i == 30 {
			ts[0].Retire(7 << 16)
		}
		f := frame{control: i%3 == 0, pooled: i%3 == 2, epoch: ts[0].epochFloor.Load()}
		var err error
		switch {
		case f.control:
			err = ts[0].SendControl(1, []byte(fmt.Sprint(i)))
		case f.pooled:
			m := LeaseBuf(free, 1, 1)
			m.Data[0] = float64(i)
			err = ts[0].SendTensor(1, 3, i, m, free)
		default:
			err = ts[0].SendTensor(1, 2, i, &tensor.Matrix{Rows: 1, Cols: 1, Data: []float64{float64(i)}}, nil)
		}
		if err != nil {
			t.Fatal(err)
		}
		sent = append(sent, f)
	}
	for i, f := range sent {
		sm := next()
		switch {
		case sm.Epoch != f.epoch:
			t.Fatalf("frame %d stamped %d, sent at %d", i, sm.Epoch, f.epoch)
		case f.control && (sm.Tensor != nil || string(sm.Data) != fmt.Sprint(i)):
			t.Fatalf("frame %d: want control payload %q, got %+v", i, fmt.Sprint(i), sm)
		case !f.control && (sm.Tensor == nil || sm.Index != i || sm.Tensor.Data[0] != float64(i)):
			t.Fatalf("frame %d: want tensor %d, got %+v", i, i, sm)
		case f.pooled != (sm.Class == 3):
			t.Fatalf("frame %d arrived with class %d", i, sm.Class)
		}
	}
}

// TestSendTensorRefusesUnframeable checks the sender refuses a tensor that
// cannot travel as one frame — past MaxFramePayload, past the 4 GiB a
// header's byte count can hold, negatively shaped, or with data that
// disagrees with its shape — and that the connection stays up. The large
// matrices are headers only, so nothing of their size is allocated.
func TestSendTensorRefusesUnframeable(t *testing.T) {
	ts := mesh(t, 2)
	free := make(chan *tensor.Matrix, 1)
	for name, m := range map[string]*tensor.Matrix{
		"past the frame limit": {Rows: 1 << 14, Cols: 1 << 14},
		"byte count wraps":     {Rows: 1 << 16, Cols: 1 << 16},
		"negative shape":       {Rows: -1, Cols: 4},
		"short data":           {Rows: 2, Cols: 3, Data: make([]float64, 5)},
	} {
		if err := ts[0].SendTensor(1, 1, 0, m, nil); err == nil {
			t.Errorf("%s: SendTensor accepted a %dx%d matrix with %d values", name, m.Rows, m.Cols, len(m.Data))
		}
		if err := ts[0].SendTensor(1, 1, 0, m, free); err == nil {
			t.Errorf("%s: pooled SendTensor accepted a %dx%d matrix with %d values", name, m.Rows, m.Cols, len(m.Data))
		}
	}
	if err := ts[0].SendTensor(1, 1, 7, tensor.New(1, 2), nil); err != nil {
		t.Fatal(err)
	}
	select {
	case tm := <-ts[1].Session():
		if tm.Index != 7 {
			t.Fatalf("received tensor %d, want 7: a refused send reached the wire", tm.Index)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the connection did not survive the refused sends")
	}
}

// TestTCPControlAndTensorsCarryEpochFloor checks the session generation
// rides in the header of out-of-band traffic: control and tensor frames
// (plain and pooled) arrive stamped with the sender's epoch floor — zero
// before any Retire, f after Retire(f) — which is how the session layer
// tells a torn generation's leftovers from current traffic.
func TestTCPControlAndTensorsCarryEpochFloor(t *testing.T) {
	ts := mesh(t, 2)
	free := make(chan *tensor.Matrix, 1)
	send := func() {
		t.Helper()
		if err := ts[0].SendControl(1, []byte(`{}`)); err != nil {
			t.Fatal(err)
		}
		if err := ts[0].SendTensor(1, 1, 0, tensor.New(1, 2), nil); err != nil {
			t.Fatal(err)
		}
		if err := ts[0].SendTensor(1, 1, 1, LeaseBuf(free, 1, 2), free); err != nil {
			t.Fatal(err)
		}
	}
	expect := func(epoch uint32) {
		t.Helper()
		select {
		case cm := <-ts[1].Session():
			if cm.Epoch != epoch {
				t.Fatalf("control frame stamped %d, want %d", cm.Epoch, epoch)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("control frame never arrived")
		}
		for i := 0; i < 2; i++ {
			select {
			case tm := <-ts[1].Session():
				if tm.Epoch != epoch {
					t.Fatalf("tensor frame %d stamped %d, want %d", tm.Index, tm.Epoch, epoch)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("tensor frame never arrived")
			}
		}
	}
	send()
	expect(0)
	ts[0].Retire(3 << 16)
	send()
	expect(3 << 16)
	ts[0].Retire(1) // a lower floor never regresses the stamp
	send()
	expect(3 << 16)
}

// TestTCPGroupAllReduce drives collective groups over their sum edges:
// repeated exchanges, a rank that opens its group only after its peers'
// contributions arrived, and a malformed contribution. The cases run over
// loopback TCP and again, as the mesh subtest, on a 3-rank in-memory mesh,
// which must give the same bit-identical member-order sums.
func TestTCPGroupAllReduce(t *testing.T) {
	const n, size = 3, 41
	members := []int{0, 1, 2}
	open := func(t *testing.T, ts []Transport, self, gid int, members []int) Group {
		t.Helper()
		g, err := OpenGroup(ts[self], self, gid, members, size)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	// check requires every rank's result to be the member-order sum and
	// bit-identical across ranks.
	check := func(t *testing.T, round int, bufs [][]float64, want []float64) {
		t.Helper()
		for r := range bufs {
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

	cases := func(t *testing.T, b groupBackend) {
		t.Run("rounds", func(t *testing.T) {
			ts := b.ranks(t, n)
			groups := make([]Group, n)
			for r := range ts {
				groups[r] = open(t, ts, r, 5, members)
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
				}
				check(t, round, bufs, want)
			}
		})

		// Ranks 0 and 1 contribute before rank 2 has opened the group: their
		// frames wait for rank 2, exactly like edge frames, and the exchange
		// completes once rank 2 opens.
		t.Run("late-open", func(t *testing.T) {
			ts := b.ranks(t, n)
			bufs := randBufs(n, size, 7)
			want := rankOrderSum(bufs)
			errs := make(chan error, n)
			for r := 0; r < 2; r++ {
				g := open(t, ts, r, 6, members)
				go func(r int) { errs <- g.AllReduce(bufs[r], nil) }(r)
			}
			deadline := time.Now().Add(5 * time.Second)
			for b.delivered(ts, 2) < 2 {
				if time.Now().After(deadline) {
					t.Fatal("peers' contributions never reached rank 2")
				}
				time.Sleep(time.Millisecond)
			}
			g := open(t, ts, 2, 6, members)
			go func() { errs <- g.AllReduce(bufs[2], nil) }()
			for i := 0; i < n; i++ {
				select {
				case err := <-errs:
					if err != nil {
						t.Fatal(err)
					}
				case <-time.After(5 * time.Second):
					t.Fatal("group opened after its contributions arrived never completed")
				}
			}
			check(t, 0, bufs, want)
		})

		// A contribution of the wrong length, sent on a raw sum edge, fails the
		// receiver's all-reduce instead of being summed.
		t.Run("wrong-length", func(t *testing.T) {
			ts := b.ranks(t, n)
			g := open(t, ts, 1, 7, members[:2])
			bad, err := ts[0].OpenEdge(EdgeID{Bound: 7, Dir: sum, S: 0, Q: 1}, 1, 2)
			if err != nil {
				t.Fatal(err)
			}
			if err := bad.SendCopy(0, tensor.New(1, size-1)); err != nil {
				t.Fatal(err)
			}
			if err := g.AllReduce(make([]float64, size), nil); err == nil {
				t.Fatal("all-reduce accepted a short contribution")
			}
		})
	}
	cases(t, tcpBackend)
	t.Run("mesh", func(t *testing.T) { cases(t, meshBackend) })
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

// TestTCPRegisterAfterCloseRejected pins the shutdown race in which an
// inbound HELLO is read only after Close began: the late connection must be
// refused, or its pumps would start on a live socket and Close would wait
// for them forever.
func TestTCPRegisterAfterCloseRejected(t *testing.T) {
	tr, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tr.Close()
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	if err := tr.register(newTCPConn(tr, 1, a, nil)); !errors.Is(err, ErrClosed) {
		t.Fatalf("register after Close = %v, want ErrClosed", err)
	}
}

// TestTCPCloseWithSilentInbound pins Close against a remote that connects
// and never sends its opening frame: the handshake blocked reading it must
// be unblocked by Close, not by the remote hanging up.
func TestTCPCloseWithSilentInbound(t *testing.T) {
	tr, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	nc, err := net.Dial("tcp", tr.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		tr.mu.Lock()
		waiting := len(tr.inbound)
		tr.mu.Unlock()
		if waiting == 1 {
			break // a handshake is blocked reading nc's opening frame
		}
		if time.Now().After(deadline) {
			t.Fatal("the accept loop never handed the connection to a handshake")
		}
	}
	done := make(chan struct{})
	go func() {
		tr.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(3 * time.Second):
		t.Fatal("Close blocked on an inbound connection that never sent its opening frame")
	}
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := nc.Read(make([]byte, 1)); errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatal("Close left the silent inbound connection open")
	}
}
