package transport

import (
	"errors"
	"slices"
	"testing"
	"time"

	"dapple/internal/tensor"
)

// groupBackend builds the connected ranks of one backend for group tests.
type groupBackend struct {
	name  string
	ranks func(t *testing.T, n int) []Transport
	// delivered counts the frames that reached rank r before r opened the
	// edges they travel on.
	delivered func(ts []Transport, r int) int
}

// tcpBackend is a fully connected loopback TCP mesh.
var tcpBackend = groupBackend{
	name: "tcp",
	ranks: func(t *testing.T, n int) []Transport {
		ts := make([]Transport, n)
		for r, tr := range mesh(t, n) {
			ts[r] = tr
		}
		return ts
	},
	delivered: func(ts []Transport, r int) int { return int(ts[r].(*TCP).Stats().FramesRecv) },
}

// meshBackend is an in-memory mesh.
var meshBackend = groupBackend{
	name: "mesh",
	ranks: func(t *testing.T, n int) []Transport {
		ts := make([]Transport, n)
		for r, tr := range NewInprocMesh(n) {
			ts[r] = tr
			t.Cleanup(func() { tr.Close() })
		}
		return ts
	},
	delivered: func(ts []Transport, r int) int {
		h := ts[r].(*Inproc).hub
		h.mu.Lock()
		defer h.mu.Unlock()
		n := 0
		for k, q := range h.pending {
			if k.to != r {
				continue
			}
			for _, e := range q {
				n += len(e.ch)
			}
		}
		return n
	},
}

// TestChaosGroup runs a 2-rank group with rank 0 behind Chaos, on each
// backend: chaos reaches the group's sum edges, and every fault ends in the
// right sum or an error, never a wrong sum.
func TestChaosGroup(t *testing.T) {
	const size = 37
	members := []int{0, 1}
	// open wraps rank 0 in cfg's chaos and opens group 3 on both ranks.
	open := func(t *testing.T, b groupBackend, cfg ChaosConfig) (*Chaos, [2]Group) {
		t.Helper()
		ts := b.ranks(t, 2)
		ch := NewChaos(ts[0], cfg)
		t.Cleanup(func() { ch.Close() })
		var gs [2]Group
		for r, tr := range []Transport{ch, ts[1]} {
			g, err := OpenGroup(tr, r, 3, members, size)
			if err != nil {
				t.Fatal(err)
			}
			gs[r] = g
		}
		return ch, gs
	}
	// round runs one all-reduce on both ranks and returns their errors.
	round := func(gs [2]Group, bufs [][]float64, abort <-chan struct{}) [2]error {
		var errs [2]error
		done := make(chan int, 2)
		for r := range gs {
			go func(r int) { errs[r] = gs[r].AllReduce(bufs[r], abort); done <- r }(r)
		}
		<-done
		<-done
		return errs
	}

	for _, b := range []groupBackend{tcpBackend, meshBackend} {
		t.Run(b.name, func(t *testing.T) {
			t.Run("delay", func(t *testing.T) {
				_, gs := open(t, b, ChaosConfig{Seed: 8, DelayProb: 0.7, MaxDelay: 200 * time.Microsecond})
				for k := 0; k < 6; k++ {
					bufs := randBufs(2, size, int64(k))
					want := rankOrderSum(bufs)
					if errs := round(gs, bufs, nil); errs[0] != nil || errs[1] != nil {
						t.Fatalf("round %d: %v", k, errs)
					}
					requireAll(t, "delayed round", bufs, want)
				}
			})

			// Rank 0's round-0 contribution arrives twice; the copy must fail
			// rank 1's round 1 rather than be summed into it.
			t.Run("dup", func(t *testing.T) {
				_, gs := open(t, b, ChaosConfig{Seed: 1, DupProb: 1})
				bufs := randBufs(2, size, 1)
				want := rankOrderSum(bufs)
				if errs := round(gs, bufs, nil); errs[0] != nil || errs[1] != nil {
					t.Fatalf("round 0: %v", errs)
				}
				requireAll(t, "round 0", bufs, want)
				bufs = randBufs(2, size, 2)
				mine := slices.Clone(bufs[1])
				errs := round(gs, bufs, nil)
				if errs[1] == nil {
					t.Fatal("rank 1 summed a duplicated round-0 contribution into round 1")
				}
				if !slices.Equal(bufs[1], mine) {
					t.Fatal("rank 1's failed round changed its buffer")
				}
			})

			// Rank 0's sum edge toward rank 1 freezes after one send: rank 1
			// waits for the contribution until its abort closes.
			t.Run("freeze", func(t *testing.T) {
				frozen := EdgeID{Bound: 3, Dir: sum, S: 0, Q: 1}
				ch, gs := open(t, b, ChaosConfig{Seed: 1, Freeze: map[EdgeID]int{frozen: 1}})
				bufs := randBufs(2, size, 3)
				if errs := round(gs, bufs, nil); errs[0] != nil || errs[1] != nil {
					t.Fatalf("round 0: %v", errs)
				}
				bufs = randBufs(2, size, 4)
				mine := slices.Clone(bufs[1])
				frozenErr := make(chan error, 1)
				go func() { frozenErr <- gs[0].AllReduce(bufs[0], nil) }()
				abort := make(chan struct{})
				timer := time.AfterFunc(30*time.Millisecond, func() { close(abort) })
				defer timer.Stop()
				if err := gs[1].AllReduce(bufs[1], abort); !errors.Is(err, ErrAborted) {
					t.Fatalf("rank 1 behind a frozen sum edge returned %v, want ErrAborted", err)
				}
				if !slices.Equal(bufs[1], mine) {
					t.Fatal("rank 1's aborted round changed its buffer")
				}
				ch.Close()
				if err := <-frozenErr; !errors.Is(err, ErrChaos) {
					t.Fatalf("frozen rank 0 returned %v, want ErrChaos", err)
				}
			})

			// Rank 0 tears on its first send: it sees the injected fault and
			// rank 1 the dead peer — ErrClosed on the mesh, ErrPeerDown over
			// TCP.
			t.Run("tear", func(t *testing.T) {
				ch, gs := open(t, b, ChaosConfig{Seed: 1, TearAfter: 1})
				bufs := randBufs(2, size, 5)
				mine := slices.Clone(bufs[1])
				errs := round(gs, bufs, make(chan struct{}))
				if !errors.Is(errs[0], ErrChaos) || !ch.Torn() {
					t.Fatalf("torn rank 0 returned %v, want ErrChaos", errs[0])
				}
				if errs[1] == nil || errors.Is(errs[1], ErrChaos) || b.name == "mesh" && !errors.Is(errs[1], ErrClosed) ||
					b.name == "tcp" && !errors.Is(errs[1], ErrPeerDown) {
					t.Fatalf("rank 1 returned %v, want its dead peer's error", errs[1])
				}
				if !slices.Equal(bufs[1], mine) {
					t.Fatal("rank 1's failed round changed its buffer")
				}
			})
		})
	}
}

// TestInprocMeshPairsOpens pins the mesh's pairing: the k-th open of an
// EdgeID by one rank meets the k-th open by the other, whichever side opens
// first, while every open toward the endpoint's own rank is a fresh edge.
func TestInprocMeshPairsOpens(t *testing.T) {
	ts := NewInprocMesh(2)
	id := EdgeID{Bound: 1, Dir: Fwd, S: 0, Q: 1}
	open := func(r int) Edge {
		t.Helper()
		e, err := ts[r].OpenEdge(id, 1-r, 4)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	a1, a2 := open(0), open(0) // rank 0 two opens ahead
	b1 := open(1)
	b2 := open(1)
	b3 := open(1) // rank 1 one open ahead
	a3 := open(0)
	one := tensor.New(1, 1)
	for k, pair := range [][2]Edge{{a1, b1}, {a2, b2}, {b3, a3}} {
		if err := pair[0].SendCopy(k, one); err != nil {
			t.Fatal(err)
		}
		msg, err := pair[1].Recv(nil)
		if err != nil || msg.M != k {
			t.Fatalf("open %d: got micro-batch %d (%v), want %d", k, msg.M, err, k)
		}
	}

	self := func() Edge {
		e, err := ts[0].OpenEdge(id, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	s1, s2 := self(), self()
	if err := s1.SendView(9, one); err != nil {
		t.Fatal(err)
	}
	closed := make(chan struct{})
	close(closed)
	if _, err := s2.Recv(closed); !errors.Is(err, ErrAborted) {
		t.Fatalf("a second self edge received %v, want a fresh empty edge", err)
	}
	if msg, err := s1.Recv(nil); err != nil || msg.M != 9 || msg.Data != one || msg.Free != nil {
		t.Fatalf("self edge returned %+v, %v; want the zero-copy view", msg, err)
	}
}

// TestInprocMeshClose checks Close unblocks a peer's receive and a send on
// a full edge with ErrClosed, and that an out-of-range peer is refused.
func TestInprocMeshClose(t *testing.T) {
	ts := NewInprocMesh(3)
	id := EdgeID{Bound: 0, Dir: Bwd, S: 2, Q: 0}
	edge := func(r, peer int) Edge {
		e, err := ts[r].OpenEdge(id, peer, 1)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	recv := edge(1, 0)
	edge(0, 1)
	full := edge(2, 0)
	edge(0, 2)
	if err := full.SendCopy(0, tensor.New(1, 1)); err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 2)
	go func() { _, err := recv.Recv(make(chan struct{})); errs <- err }()
	go func() { errs <- full.SendCopy(1, tensor.New(1, 1)) }()
	time.Sleep(10 * time.Millisecond)
	ts[0].Close()
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, ErrClosed) {
				t.Fatalf("blocked operation returned %v, want ErrClosed", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("Close left a peer's operation blocked")
		}
	}
	for _, peer := range []int{-1, 3} {
		if _, err := ts[1].OpenEdge(id, peer, 1); err == nil {
			t.Fatalf("rank 1 opened an edge toward rank %d of a 3-rank mesh", peer)
		}
	}
}
