package transport

import (
	"errors"
	"sync"
	"testing"
	"time"

	"dapple/internal/tensor"
)

// logTransport is a fake inner Transport recording every delivered send, so
// chaos tests can observe exactly which frames survived the fault layer.
type logTransport struct {
	mu    sync.Mutex
	log   map[EdgeID][]int
	close int
}

func newLogTransport() *logTransport {
	return &logTransport{log: make(map[EdgeID][]int)}
}

func (l *logTransport) OpenEdge(id EdgeID, peer, cap int) (Edge, error) {
	return &logEdge{l: l, id: id}, nil
}

func (l *logTransport) Close() error {
	l.mu.Lock()
	l.close++
	l.mu.Unlock()
	return nil
}

func (l *logTransport) delivered(id EdgeID) []int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]int(nil), l.log[id]...)
}

type logEdge struct {
	l  *logTransport
	id EdgeID
}

func (e *logEdge) SendView(m int, view *tensor.Matrix) error { return e.SendCopy(m, view) }

func (e *logEdge) SendCopy(m int, data *tensor.Matrix) error {
	e.l.mu.Lock()
	e.l.log[e.id] = append(e.l.log[e.id], m)
	e.l.mu.Unlock()
	return nil
}

func (e *logEdge) Recv(abort <-chan struct{}) (Msg, error) {
	<-abort
	return Msg{}, ErrAborted
}

// chaosSchedule replays n sends on each of the given edges through a Chaos
// wrapper over a log transport and returns the delivered sequences.
func chaosSchedule(t *testing.T, cfg ChaosConfig, ids []EdgeID, n int) map[EdgeID][]int {
	t.Helper()
	inner := newLogTransport()
	ch := NewChaos(inner, cfg)
	defer ch.Close()
	mat := tensor.New(1, 1)
	out := make(map[EdgeID][]int, len(ids))
	for _, id := range ids {
		e, err := ch.OpenEdge(id, 1, n)
		if err != nil {
			t.Fatal(err)
		}
		for m := 0; m < n; m++ {
			if err := e.SendCopy(m, mat); err != nil {
				t.Fatal(err)
			}
		}
		out[id] = inner.delivered(id)
	}
	return out
}

// TestChaosDeterministicSchedule replays the same fault config three times:
// identical seeds must produce identical delivered sequences on every edge,
// and a different seed must produce a different one — the property that makes
// every chaos failure a reproducible test case.
func TestChaosDeterministicSchedule(t *testing.T) {
	ids := []EdgeID{
		{Bound: 0, Dir: Fwd, S: 0, Q: 1},
		{Bound: 0, Dir: Bwd, S: 1, Q: 0},
		{Bound: 3, Dir: Fwd, S: 2, Q: 2},
	}
	cfg := ChaosConfig{Seed: 42, DropProb: 0.3, DupProb: 0.2}
	const n = 200
	a := chaosSchedule(t, cfg, ids, n)
	b := chaosSchedule(t, cfg, ids, n)
	for _, id := range ids {
		if len(a[id]) == 0 || len(a[id]) == n {
			t.Fatalf("edge %v: degenerate schedule (%d of %d delivered) — fault draws not applied", id, len(a[id]), n)
		}
		if len(a[id]) != len(b[id]) {
			t.Fatalf("edge %v: same seed delivered %d vs %d frames", id, len(a[id]), len(b[id]))
		}
		for i := range a[id] {
			if a[id][i] != b[id][i] {
				t.Fatalf("edge %v: same seed diverged at delivery %d: %d vs %d", id, i, a[id][i], b[id][i])
			}
		}
	}
	cfg.Seed = 43
	c := chaosSchedule(t, cfg, ids, n)
	same := true
	for _, id := range ids {
		if len(c[id]) != len(a[id]) {
			same = false
			break
		}
		for i := range c[id] {
			if c[id][i] != a[id][i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical schedules on every edge")
	}
}

// TestChaosScheduleIndependentOfInterleaving drives two edges' sends from
// concurrent goroutines and asserts each edge's delivered sequence matches
// the sequential replay: per-edge streams make the schedule immune to
// goroutine interleaving.
func TestChaosScheduleIndependentOfInterleaving(t *testing.T) {
	ids := []EdgeID{
		{Bound: 1, Dir: Fwd, S: 0, Q: 1},
		{Bound: 1, Dir: Bwd, S: 1, Q: 0},
	}
	cfg := ChaosConfig{Seed: 7, DropProb: 0.4, DupProb: 0.1}
	const n = 300
	want := chaosSchedule(t, cfg, ids, n)

	inner := newLogTransport()
	ch := NewChaos(inner, cfg)
	defer ch.Close()
	var wg sync.WaitGroup
	for _, id := range ids {
		e, err := ch.OpenEdge(id, 1, n)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(e Edge) {
			defer wg.Done()
			mat := tensor.New(1, 1)
			for m := 0; m < n; m++ {
				e.SendCopy(m, mat)
			}
		}(e)
	}
	wg.Wait()
	for _, id := range ids {
		got := inner.delivered(id)
		if len(got) != len(want[id]) {
			t.Fatalf("edge %v: concurrent run delivered %d frames, sequential %d", id, len(got), len(want[id]))
		}
		for i := range got {
			if got[i] != want[id][i] {
				t.Fatalf("edge %v: concurrent run diverged at %d", id, i)
			}
		}
	}
}

// TestChaosDuplicate checks DupProb=1 delivers every frame exactly twice.
func TestChaosDuplicate(t *testing.T) {
	id := EdgeID{Bound: 0, Dir: Fwd, S: 0, Q: 0}
	got := chaosSchedule(t, ChaosConfig{Seed: 1, DupProb: 1}, []EdgeID{id}, 5)[id]
	want := []int{0, 0, 1, 1, 2, 2, 3, 3, 4, 4}
	if len(got) != len(want) {
		t.Fatalf("delivered %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delivered %v, want %v", got, want)
		}
	}
}

// TestChaosFreeze scripts an edge to freeze after 2 sends: the third send
// must block until the transport closes, then fail with ErrChaos — the hung
// rank the liveness plane exists to detect.
func TestChaosFreeze(t *testing.T) {
	id := EdgeID{Bound: 0, Dir: Fwd, S: 0, Q: 0}
	inner := newLogTransport()
	ch := NewChaos(inner, ChaosConfig{Seed: 1, Freeze: map[EdgeID]int{id: 2}})
	e, err := ch.OpenEdge(id, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	mat := tensor.New(1, 1)
	for m := 0; m < 2; m++ {
		if err := e.SendCopy(m, mat); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, 1)
	go func() { done <- e.SendCopy(2, mat) }()
	select {
	case err := <-done:
		t.Fatalf("frozen send returned early: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	ch.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrChaos) {
			t.Fatalf("frozen send returned %v, want ErrChaos", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("frozen send never unblocked after Close")
	}
	if got := inner.delivered(id); len(got) != 2 {
		t.Fatalf("frozen edge delivered %v, want exactly the 2 pre-freeze frames", got)
	}
}

// TestChaosTearAfter checks the scripted transport tear: the crossing
// operation and everything after it fail with ErrChaos, the inner transport
// is closed exactly once, and Torn reports the fault.
func TestChaosTearAfter(t *testing.T) {
	id := EdgeID{Bound: 0, Dir: Fwd, S: 0, Q: 0}
	inner := newLogTransport()
	ch := NewChaos(inner, ChaosConfig{Seed: 1, TearAfter: 3})
	e, err := ch.OpenEdge(id, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	mat := tensor.New(1, 1)
	for m := 0; m < 2; m++ {
		if err := e.SendCopy(m, mat); err != nil {
			t.Fatal(err)
		}
	}
	if ch.Torn() {
		t.Fatal("torn before the scripted op count")
	}
	for m := 2; m < 5; m++ {
		if err := e.SendCopy(m, mat); !errors.Is(err, ErrChaos) {
			t.Fatalf("send %d after tear returned %v, want ErrChaos", m, err)
		}
	}
	if !ch.Torn() {
		t.Fatal("Torn not reported after the scripted tear")
	}
	inner.mu.Lock()
	closes := inner.close
	inner.mu.Unlock()
	if closes != 1 {
		t.Fatalf("inner transport closed %d times, want 1", closes)
	}
}

// TestChaosOverTCP cross-checks the fault layer against a real socket pair:
// the delivered micro-batch sequence on the wire must equal the schedule the
// same seed produces on a fake inner transport.
func TestChaosOverTCP(t *testing.T) {
	id := EdgeID{Bound: 0, Dir: Fwd, S: 0, Q: 1}
	cfg := ChaosConfig{Seed: 99, DropProb: 0.35, DupProb: 0.25}
	const n = 64
	want := chaosSchedule(t, cfg, []EdgeID{id}, n)[id]

	ts := mesh(t, 2)
	ch := NewChaos(ts[0], cfg)
	send, err := ch.OpenEdge(id, 1, 2*n)
	if err != nil {
		t.Fatal(err)
	}
	recv, err := ts[1].OpenEdge(id, 0, 2*n)
	if err != nil {
		t.Fatal(err)
	}
	mat := tensor.New(1, 2)
	for m := 0; m < n; m++ {
		mat.Data[0], mat.Data[1] = float64(m), float64(-m)
		if err := send.SendCopy(m, mat); err != nil {
			t.Fatal(err)
		}
	}
	abort := make(chan struct{})
	for i, m := range want {
		msg, err := recv.Recv(abort)
		if err != nil {
			t.Fatal(err)
		}
		if msg.M != m || msg.Data.Data[0] != float64(m) {
			t.Fatalf("delivery %d: got micro-batch %d (%v), want %d", i, msg.M, msg.Data.Data, m)
		}
		Recycle(msg.Free, msg.Data)
	}
	timer := time.AfterFunc(100*time.Millisecond, func() { close(abort) })
	defer timer.Stop()
	if msg, err := recv.Recv(abort); err == nil {
		t.Fatalf("extra frame %d delivered beyond the scripted schedule", msg.M)
	}
}
