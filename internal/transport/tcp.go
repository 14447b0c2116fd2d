package transport

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"maps"
	"math/rand"
	"net"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dapple/internal/tensor"
)

// ErrPeerDown is wrapped by operations targeting a rank whose connection has
// failed (the rest of the mesh stays live): sends toward it and receives on
// its edges. errors.Is(err, ErrPeerDown) distinguishes a lost peer from a
// closed transport.
var ErrPeerDown = errors.New("transport: peer down")

// defaultDialRetryLimit caps DialRetry's total retry window when the caller's
// context carries no deadline, so a peer that never comes up fails the dial
// instead of retrying forever. A var (not a const) so tests can shrink it.
var defaultDialRetryLimit = 2 * time.Minute

// defaultJoinTimeout bounds DialJoin's admission round-trip when the caller's
// context carries no deadline.
var defaultJoinTimeout = 30 * time.Second

// DialRetry's backoff schedule: delays grow exponentially from
// dialBackoffBase, cap at dialBackoffMax, and are scaled by a seeded jitter
// factor so W workers re-dialing a restarted peer spread out instead of
// thundering in lock-step.
const (
	dialBackoffBase = 100 * time.Millisecond
	dialBackoffMax  = 2 * time.Second
)

// dialBackoff returns retry delay number attempt (0-based): exponential
// growth from dialBackoffBase capped at dialBackoffMax, scaled by a jitter
// factor drawn uniformly from [0.75, 1.25) off rng. Deterministic given the
// rng's seed, so a schedule can be pinned in tests.
func dialBackoff(rng *rand.Rand, attempt int) time.Duration {
	d := dialBackoffBase
	for i := 0; i < attempt && d < dialBackoffMax; i++ {
		d *= 2
	}
	if d > dialBackoffMax {
		d = dialBackoffMax
	}
	return time.Duration(float64(d) * (0.75 + 0.5*rng.Float64()))
}

// dialSeed derives a deterministic jitter seed from the dialer's identity and
// the target, so each (rank, peer) pair walks its own schedule.
func dialSeed(rank, peer int, addr string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%d|%s", rank, peer, addr)
	return int64(h.Sum64())
}

// SessionMsg is one received session frame and the rank it came from:
// either an opaque control payload (Data) or an out-of-band tensor (Tensor,
// with its Class and Index), such as a weight of a state broadcast or a
// step's inputs.
type SessionMsg struct {
	// Peer is the sender's rank.
	Peer int
	// Epoch is the sender's epoch floor when it sent the frame (see Retire).
	Epoch uint32
	// Data is the control payload; nil for a tensor.
	Data []byte
	// Tensor is the received tensor, nil for a control frame. It is leased
	// from the transport's recycle pool: hand it back with RecycleTensor
	// once consumed, or keep it (without recycling) when it is retained.
	Tensor *tensor.Matrix
	// Class distinguishes tensor streams (weights vs step inputs); Index is
	// the tensor's index within its class.
	Class, Index int
}

// Stats is a snapshot of a TCP transport's traffic counters.
type Stats struct {
	// BytesSent counts header+payload bytes written to peers.
	BytesSent int64
	// BytesRecv counts header+payload bytes read from peers.
	BytesRecv int64
	// FramesSent counts frames written.
	FramesSent int64
	// FramesRecv counts frames read.
	FramesRecv int64
}

// TCP is the socket Transport: one multiplexed connection per peer process,
// length-prefixed binary frames (see frame.go), a batching writer pump and a
// demultiplexing reader pump per connection. Edges are the registered demux
// keys, and a collective group (OpenGroup) is nothing but sum edges, so both
// share one generation scheme; frames arriving before the local endpoint
// has opened the matching edge are held at the head of the stream until it
// does (steps are coordinator-gated, so this only happens transiently while
// peers rebuild geometry). Beyond Transport it carries the coordinator
// protocol's control plane: HELLO rank exchange, one session inbox (Session)
// of opaque control payloads and out-of-band tensors, delivered in the order
// each peer sent them, and liveness at the socket (SetHeartbeat): a read
// silent past the timeout fails its connection like any read error.
//
// A connection error downs only that peer (ClosePeer): sends toward it and
// receives on its edges return ErrPeerDown, PeerDowns reports it, and the
// rest of the mesh keeps running. Whether the session then ends or re-plans
// onto the survivors is the session layer's decision, not the transport's.
type TCP struct {
	rank atomic.Int32 // read through Rank: the accept loop reads it concurrently with SetRank
	ln   net.Listener

	mu          sync.Mutex
	conns       map[int]*tcpConn
	connWait    chan struct{} // closed and remade on each registration or peer-down
	edges       map[EdgeID]*edgeSlot
	err         error
	downs       map[int]error
	latches     map[int]chan struct{} // per-rank latch, closed when the rank is marked down
	downWait    chan struct{}         // closed and remade when the down set grows
	epochFloor  atomic.Uint32         // see Retire; written under mu, read lock-free to stamp sends
	acceptJoins bool
	inbound     map[net.Conn]struct{} // accepted connections whose opening frame is unread
	hbEvery     time.Duration         // heartbeat period; 0 until SetHeartbeat
	silence     atomic.Int64          // budget every socket read arms as its deadline; <= 0 judges no one

	closed    chan struct{}
	closeOnce sync.Once

	sess  chan SessionMsg
	joins chan *JoinRequest

	// tensFree recycles inbound tensor buffers: the reader pumps lease from
	// it instead of allocating per frame, and consumers hand exhausted
	// buffers back through RecycleTensor. A consumer that retains a tensor
	// simply never recycles it.
	tensFree chan *tensor.Matrix

	bytesSent, bytesRecv   atomic.Int64
	framesSent, framesRecv atomic.Int64

	wg sync.WaitGroup // accept loop + connection pumps
}

// NewTCP returns a dial-only transport (the coordinator's side).
func NewTCP() *TCP { return newTCP() }

func newTCP() *TCP {
	t := &TCP{
		conns:    make(map[int]*tcpConn),
		connWait: make(chan struct{}),
		edges:    make(map[EdgeID]*edgeSlot),
		downs:    make(map[int]error),
		latches:  make(map[int]chan struct{}),
		downWait: make(chan struct{}),
		inbound:  make(map[net.Conn]struct{}),
		closed:   make(chan struct{}),
		sess:     make(chan SessionMsg, 320), // a step's micro-batches or a state transfer queue here while the reader is busy
		joins:    make(chan *JoinRequest, 16),
		tensFree: make(chan *tensor.Matrix, 64),
	}
	t.rank.Store(-1)
	return t
}

// RecycleTensor returns a consumed out-of-band tensor (SessionMsg.Tensor) to
// the reader pumps' free list. Consumers that retain the matrix — weight
// snapshots, optimizer state — must simply not recycle it.
func (t *TCP) RecycleTensor(m *tensor.Matrix) {
	if m == nil {
		return
	}
	Recycle(t.tensFree, m)
}

// ListenTCP returns a transport accepting peer connections on addr
// (host:port, port 0 picks a free one).
func ListenTCP(addr string) (*TCP, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	t := newTCP()
	t.ln = ln
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// SetRank fixes this transport's rank, announced in the HELLO frame of every
// outbound connection. It must be called before Dial.
func (t *TCP) SetRank(r int) { t.rank.Store(int32(r)) }

// Rank returns the transport's rank (-1 until SetRank).
func (t *TCP) Rank() int { return int(t.rank.Load()) }

// Addr returns the listen address, or "" for dial-only transports.
func (t *TCP) Addr() string {
	if t.ln == nil {
		return ""
	}
	return t.ln.Addr().String()
}

// Stats returns a snapshot of the traffic counters.
func (t *TCP) Stats() Stats {
	return Stats{
		BytesSent:  t.bytesSent.Load(),
		BytesRecv:  t.bytesRecv.Load(),
		FramesSent: t.framesSent.Load(),
		FramesRecv: t.framesRecv.Load(),
	}
}

// Session returns the session inbox: every control payload and out-of-band
// tensor from every peer, each peer's frames in the order it sent them.
func (t *TCP) Session() <-chan SessionMsg { return t.sess }

// SetHeartbeat turns on the liveness plane: every interval (positive) a
// heartbeat is queued toward each peer, skipping a full writer queue so a
// stalled peer never holds up the others' heartbeats, and a peer whose
// socket stays silent for timeout while its reader pump reads is closed
// through ClosePeer. Any byte is evidence, and a pump parked (behind an
// unopened edge or a full Session inbox) is not reading, so it judges no
// one. timeout <= 0 sends heartbeats but judges no one. A later call
// replaces both values.
func (t *TCP) SetHeartbeat(interval, timeout time.Duration) {
	t.silence.Store(int64(timeout))
	t.mu.Lock()
	defer t.mu.Unlock()
	select {
	case <-t.closed:
		return
	default:
	}
	if t.hbEvery == 0 {
		t.wg.Add(1)
		go t.heartbeatLoop()
	}
	t.hbEvery = interval
	// Pumps already parked in a read armed the previous budget (or none).
	for _, c := range t.conns {
		c.nc.SetReadDeadline(readDeadline(timeout)) //nolint:errcheck // fails only once closed, which the pump's read reports
	}
}

// heartbeatLoop queues one heartbeat per connection every period until the
// transport closes.
func (t *TCP) heartbeatLoop() {
	defer t.wg.Done()
	for {
		t.mu.Lock()
		every := t.hbEvery
		for _, c := range t.conns {
			select {
			case c.out <- outFrame{h: Header{Type: FrameHeartbeat}}:
			default:
			}
		}
		t.mu.Unlock()
		select {
		case <-time.After(every):
		case <-t.closed:
			return
		}
	}
}

// readDeadline is the deadline a silence budget d arms now (none for d <= 0).
func readDeadline(d time.Duration) time.Time {
	if d <= 0 {
		return time.Time{}
	}
	return time.Now().Add(d)
}

// silenceReader is the socket under every FrameReader the transport creates:
// each Read arms the read deadline with the current silence budget first, so
// silence is timed only across a read, never across a park.
type silenceReader struct {
	t     *TCP
	nc    net.Conn
	armed bool // a deadline is set; a reader that never armed one pays nothing
}

func (r *silenceReader) Read(p []byte) (int, error) {
	// Re-check after arming: a SetHeartbeat that raced the arm is either
	// seen here or arms the connection itself after this reader did.
	for d := time.Duration(-1); d != time.Duration(r.t.silence.Load()); {
		d = time.Duration(r.t.silence.Load())
		if d > 0 || r.armed {
			r.nc.SetReadDeadline(readDeadline(d)) //nolint:errcheck // fails only once closed, which the read below reports
			r.armed = d > 0
		}
	}
	return r.nc.Read(p)
}

// PeerDowns returns the ranks marked down (ascending) and a channel closed
// the next time the set grows, so liveness waits can select on membership
// changes instead of polling.
func (t *TCP) PeerDowns() ([]int, <-chan struct{}) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Sorted(maps.Keys(t.downs)), t.downWait
}

// DownErr returns the error that downed rank, or nil while it is live.
func (t *TCP) DownErr(rank int) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.downs[rank]
}

// ClosePeer marks rank down for the given reason — a connection pump's
// error (a read silent past the heartbeat timeout included) or the session
// layer's verdict on a rank that missed a barrier. Its connection is closed
// and removed, sends toward it and receives on its edges fail with
// ErrPeerDown (blocked ones included), and both the registration and
// down-set latches fire; the rest of the mesh keeps running. Idempotent per
// rank.
func (t *TCP) ClosePeer(rank int, reason error) {
	t.mu.Lock()
	if _, dup := t.downs[rank]; dup {
		t.mu.Unlock()
		return
	}
	t.downs[rank] = reason
	close(t.latch(rank))
	c, live := t.conns[rank]
	delete(t.conns, rank)
	close(t.connWait)
	t.connWait = make(chan struct{})
	close(t.downWait)
	t.downWait = make(chan struct{})
	t.mu.Unlock()
	if live {
		c.nc.Close()
	}
}

// latch returns rank's down latch, closed once rank is marked down. The
// caller holds mu.
func (t *TCP) latch(rank int) chan struct{} {
	l, ok := t.latches[rank]
	if !ok {
		l = make(chan struct{})
		t.latches[rank] = l
	}
	return l
}

// Retire ends the current session generation's data-plane state: every open
// edge generation, collective groups' sum edges included, is torn down
// (their blocked operations return ErrClosed, held deliveries are dropped)
// and frames of generations below floor are discarded on arrival instead of
// held. Survivor re-planning calls
// Retire with the new session generation's epoch floor before rebuilding
// executors, so in-flight traffic from the torn step can neither corrupt nor
// deadlock the rebuilt pipeline; all ranks must use the same floor. Control
// and tensor frames carry the sender's floor in their header, so the session
// layer tells a torn generation's leftovers from current traffic.
func (t *TCP) Retire(floor uint32) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if floor > t.epochFloor.Load() {
		t.epochFloor.Store(floor)
	}
	// Waking every slot's opened latch (not just torn generations') matters:
	// a reader pump can be parked in a head-of-stream hold on a slot that was
	// NEVER opened locally — a frame for a generation this endpoint hadn't
	// built yet. Without the wake it would sleep until an OpenEdge that may
	// never come; with it, the hold re-checks the raised floor and discards
	// the now-retired frame.
	for _, sl := range t.edges {
		if sl.st != nil {
			close(sl.st.dead)
			sl.st = nil
		}
		close(sl.opened)
		sl.opened = make(chan struct{})
	}
}

// Dial connects to the peer rank at addr, sends the HELLO frame and starts
// the connection's pumps.
func (t *TCP) Dial(ctx context.Context, peer int, addr string) error {
	var d net.Dialer
	nc, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return err
	}
	c := newTCPConn(t, peer, nc, NewFrameReader(&silenceReader{t: t, nc: nc}))
	// HELLO is the connection's first frame: queued before registration
	// makes the connection visible to senders and heartbeats.
	c.out <- outFrame{h: Header{Type: FrameHello, A: int32(t.Rank())}}
	if err := t.register(c); err != nil {
		nc.Close()
		return err
	}
	c.start()
	return nil
}

// DialRetry is Dial retried with exponential backoff until ctx expires, for
// concurrent mesh bring-up: a peer's listener may not be up yet when this
// process starts, so connection-refused is a wait, not a failure. Retry
// delays grow from dialBackoffBase to dialBackoffMax with seeded jitter (see
// dialBackoff), so W workers re-dialing a restarted peer spread their
// attempts instead of thundering in lock-step. The retry window is always
// bounded: a ctx without a deadline is capped at a package default (2
// minutes), so a peer that never comes up fails the dial instead of retrying
// forever. Returns the last dial error when the window runs out.
func (t *TCP) DialRetry(ctx context.Context, peer int, addr string) error {
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, defaultDialRetryLimit)
		defer cancel()
	}
	rng := rand.New(rand.NewSource(dialSeed(t.Rank(), peer, addr)))
	for attempt := 0; ; attempt++ {
		err := t.Dial(ctx, peer, addr)
		if err == nil {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("transport: dial rank %d at %s: gave up: %w: last error: %w", peer, addr, ctx.Err(), err)
		case <-time.After(dialBackoff(rng, attempt)):
		}
	}
}

// acceptLoop accepts inbound peer connections; each must open with HELLO.
func (t *TCP) acceptLoop() {
	defer t.wg.Done()
	for {
		nc, err := t.ln.Accept()
		if err != nil {
			select {
			case <-t.closed:
			default:
				t.fail(err)
			}
			return
		}
		t.wg.Add(1)
		go t.handshake(nc)
	}
}

// handshake reads an inbound connection's opening frame: HELLO (a known rank
// connecting) registers the connection and starts its pumps; FrameJoinReq (a
// rankless process asking to be admitted) is handed to the session layer via
// Joins when joins are accepted, rejected on the wire otherwise. Until then
// shutdown closes nc, so Close never waits on a remote that says nothing.
func (t *TCP) handshake(nc net.Conn) {
	defer t.wg.Done()
	kept := false // registered as a peer or queued as a join: nc lives on
	t.mu.Lock()
	t.inbound[nc] = struct{}{}
	t.mu.Unlock()
	defer func() {
		t.mu.Lock()
		delete(t.inbound, nc)
		t.mu.Unlock()
		if !kept {
			nc.Close()
		}
	}()
	select {
	case <-t.closed: // shutdown's sweep may have run before nc was tracked
		return
	default:
	}
	fr := NewFrameReader(&silenceReader{t: t, nc: nc})
	h, err := fr.ReadHeader()
	if err != nil {
		return
	}
	switch h.Type {
	case FrameHello:
		c := newTCPConn(t, int(h.A), nc, fr)
		if t.register(c) == nil {
			kept = true
			c.start()
		}
	case FrameJoinReq:
		payload := make([]byte, h.N)
		if err := fr.ReadBytes(payload); err != nil {
			return
		}
		t.mu.Lock()
		accept := t.acceptJoins
		t.mu.Unlock()
		if !accept {
			rejectJoin(nc, t.Rank(), "transport does not accept joins")
			return
		}
		select {
		case t.joins <- &JoinRequest{Payload: payload, t: t, nc: nc, fr: fr}:
			kept = true
		case <-t.closed:
		default:
			rejectJoin(nc, t.Rank(), "join queue full")
		}
	}
}

// SetAcceptJoins switches membership-handshake admission on the listener: on,
// inbound FrameJoinReq connections surface on Joins; off (the default), they
// are rejected on the wire. Elastic sessions turn it on at the coordinator.
func (t *TCP) SetAcceptJoins(on bool) {
	t.mu.Lock()
	t.acceptJoins = on
	t.mu.Unlock()
}

// Joins returns the inbox of pending membership handshakes. Each request must
// be answered exactly once with Grant or Reject; the admission policy (rank
// allocation, version checks) lives in the session layer.
func (t *TCP) Joins() <-chan *JoinRequest { return t.joins }

// JoinRequest is one inbound membership handshake held open by the listener:
// a rankless process sent FrameJoinReq and is blocked waiting for the grant
// frame. Grant admits it under a fresh rank; Reject answers with a reason and
// closes the connection.
type JoinRequest struct {
	// Payload is the joiner's opaque request (the session layer's JSON).
	Payload []byte

	t    *TCP
	nc   net.Conn
	fr   *FrameReader
	mu   sync.Mutex
	done bool
}

// Grant admits the joiner as rank: the reply payload rides the grant frame,
// the connection is registered in the peer table under rank and its pumps
// start, so mid-session ranks get the same generation-safe edge demux as
// launch-time peers. rank must be fresh — ranks marked down stay banned.
func (j *JoinRequest) Grant(rank int, reply []byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.done {
		return errors.New("transport: join request already answered")
	}
	j.done = true
	c := newTCPConn(j.t, rank, j.nc, j.fr)
	if err := j.t.register(c); err != nil {
		j.nc.Close()
		return err
	}
	// The grant is written directly: the writer pump only starts below, so
	// nothing can interleave with it.
	grant := Header{Type: FrameJoinGrant, A: int32(rank), B: int32(j.t.Rank())}
	if err := (&FrameWriter{W: j.nc}).write(outFrame{h: grant, payload: reply}); err != nil {
		j.t.ClosePeer(rank, err)
		return err
	}
	c.start()
	return nil
}

// Reject answers the handshake with a reason and closes the connection. Safe
// to call after Grant (it becomes a no-op), so error paths can always reject.
func (j *JoinRequest) Reject(reason string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.done {
		return
	}
	j.done = true
	rejectJoin(j.nc, j.t.Rank(), reason)
	j.nc.Close()
}

// rejectJoin writes a rejection grant (rank -1, reason as payload) on a raw
// connection.
func rejectJoin(nc net.Conn, rank int, reason string) {
	reject := Header{Type: FrameJoinGrant, A: -1, B: int32(rank)}
	(&FrameWriter{W: nc}).write(outFrame{h: reject, payload: []byte(reason)}) //nolint:errcheck // the connection closes either way
}

// DialJoin dials a listening transport and runs the membership handshake: it
// sends FrameJoinReq with the opaque request payload, blocks for the grant,
// and on admission adopts the granted rank as this transport's own, registers
// the connection under the granter's rank and starts its pumps. It must be
// called before any other connection exists (the joiner is rankless until the
// grant). Returns the granted rank, the granter's rank and the opaque reply.
func (t *TCP) DialJoin(ctx context.Context, addr string, payload []byte) (rank, granter int, reply []byte, err error) {
	var d net.Dialer
	nc, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return 0, 0, nil, err
	}
	deadline := time.Now().Add(defaultJoinTimeout)
	if dl, ok := ctx.Deadline(); ok {
		deadline = dl
	}
	nc.SetDeadline(deadline)
	if err := (&FrameWriter{W: nc}).write(outFrame{h: Header{Type: FrameJoinReq}, payload: payload}); err != nil {
		nc.Close()
		return 0, 0, nil, fmt.Errorf("transport: join %s: %w", addr, err)
	}
	fr := NewFrameReader(&silenceReader{t: t, nc: nc})
	h, err := fr.ReadHeader()
	if err != nil {
		nc.Close()
		return 0, 0, nil, fmt.Errorf("transport: join %s: no grant: %w", addr, err)
	}
	if h.Type != FrameJoinGrant {
		nc.Close()
		return 0, 0, nil, fmt.Errorf("transport: join %s: unexpected frame type %d", addr, h.Type)
	}
	reply = make([]byte, h.N)
	if err := fr.ReadBytes(reply); err != nil {
		nc.Close()
		return 0, 0, nil, fmt.Errorf("transport: join %s: torn grant: %w", addr, err)
	}
	if h.A < 0 {
		nc.Close()
		return 0, 0, nil, fmt.Errorf("transport: join %s rejected: %s", addr, reply)
	}
	nc.SetDeadline(time.Time{})
	t.SetRank(int(h.A))
	c := newTCPConn(t, int(h.B), nc, fr)
	if err := t.register(c); err != nil {
		nc.Close()
		return 0, 0, nil, err
	}
	c.start()
	return int(h.A), int(h.B), reply, nil
}

// register adds a connection to the peer table and wakes WaitPeers. Ranks
// already marked down are rejected: a failed rank cannot rejoin a session
// (recovery re-plans around it instead). So is every connection once the
// transport has shut down — an inbound HELLO read after Close began would
// otherwise start pumps that Close never stops.
func (t *TCP) register(c *tcpConn) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return t.err
	}
	select {
	case <-t.closed:
		return ErrClosed
	default:
	}
	if err, down := t.downs[c.peer]; down {
		return fmt.Errorf("%w: rank %d cannot rejoin: %v", ErrPeerDown, c.peer, err)
	}
	if _, dup := t.conns[c.peer]; dup {
		return fmt.Errorf("transport: duplicate connection from rank %d", c.peer)
	}
	c.dead = t.latch(c.peer)
	t.conns[c.peer] = c
	close(t.connWait)
	t.connWait = make(chan struct{})
	return nil
}

// WaitPeers blocks until a connection to every listed rank exists; a listed
// rank going down while waiting fails the wait.
func (t *TCP) WaitPeers(ctx context.Context, peers []int) error {
	for {
		t.mu.Lock()
		missing := false
		var downErr error
		for _, p := range peers {
			if _, ok := t.conns[p]; !ok {
				missing = true
				if err, down := t.downs[p]; down {
					downErr = fmt.Errorf("%w: rank %d: %v", ErrPeerDown, p, err)
				}
				break
			}
		}
		wait := t.connWait
		t.mu.Unlock()
		if downErr != nil {
			return downErr
		}
		if !missing {
			return nil
		}
		select {
		case <-wait:
		case <-ctx.Done():
			return ctx.Err()
		case <-t.closed:
			return t.closeErr()
		}
	}
}

// conn returns the registered connection to peer.
func (t *TCP) conn(peer int) (*tcpConn, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return nil, t.err
	}
	if err, down := t.downs[peer]; down {
		return nil, fmt.Errorf("%w: rank %d: %v", ErrPeerDown, peer, err)
	}
	c, ok := t.conns[peer]
	if !ok {
		return nil, fmt.Errorf("transport: no connection to rank %d", peer)
	}
	return c, nil
}

// enqueue hands a frame to peer's writer pump. A peer going down mid-wait
// unblocks the send with ErrPeerDown, so a full queue toward a hung rank
// can never wedge the caller past the liveness verdict.
func (t *TCP) enqueue(peer int, f outFrame) error {
	c, err := t.conn(peer)
	if err != nil {
		return err
	}
	select {
	case c.out <- f:
		return nil
	case <-c.dead:
		return fmt.Errorf("%w: rank %d", ErrPeerDown, c.peer)
	case <-t.closed:
		return t.closeErr()
	}
}

// SendControl sends an opaque control payload to peer, stamped with the
// current epoch floor.
func (t *TCP) SendControl(peer int, payload []byte) error {
	return t.enqueue(peer, outFrame{h: Header{Type: FrameControl, Epoch: t.epochFloor.Load()}, payload: payload})
}

// SendTensor sends an out-of-band tensor to peer under (class, index),
// stamped with the current epoch floor. The writer pump serializes m
// asynchronously: with a nil free the caller must not mutate m until the
// peer has acted on it (the coordinator protocol's step gating guarantees
// this); otherwise the pump returns m to free once its bytes are staged, so
// steady-state senders cycle a small pool (see LeaseBuf) and must not touch
// m after the call. A matrix whose data disagrees with its shape, or that
// cannot travel as one frame (more than MaxFramePayload bytes), is refused
// here rather than by the receiver, which would drop the connection.
func (t *TCP) SendTensor(peer, class, index int, m *tensor.Matrix, free chan *tensor.Matrix) error {
	h, err := tensorHeader(class, index, m)
	if err != nil {
		return err
	}
	h.Epoch = t.epochFloor.Load()
	return t.enqueue(peer, outFrame{h: h, mat: m, free: free})
}

// fail records the first transport error and tears everything down.
func (t *TCP) fail(err error) {
	t.mu.Lock()
	if t.err == nil {
		t.err = err
	}
	t.mu.Unlock()
	t.shutdown()
}

// Done returns a channel closed when the transport has shut down, by Close
// or a failed listener; Err then reports why. A peer's death never closes it
// (see ClosePeer). Session layers select on it alongside Session so a closed
// transport never strands a protocol wait.
func (t *TCP) Done() <-chan struct{} { return t.closed }

// Err returns the failure that tore the transport down, ErrClosed after a
// clean Close, or nil while the transport is live.
func (t *TCP) Err() error {
	select {
	case <-t.closed:
		return t.closeErr()
	default:
		return nil
	}
}

// closeErr returns the recorded failure, or ErrClosed after a clean Close.
func (t *TCP) closeErr() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return t.err
	}
	return ErrClosed
}

// Close shuts the transport down; blocked operations return ErrClosed.
func (t *TCP) Close() error {
	t.shutdown()
	t.wg.Wait()
	return nil
}

// shutdown closes the stop latch, the listener and every connection.
func (t *TCP) shutdown() {
	t.closeOnce.Do(func() {
		close(t.closed)
		if t.ln != nil {
			t.ln.Close()
		}
		t.mu.Lock()
		defer t.mu.Unlock()
		for _, c := range t.conns {
			c.nc.Close()
		}
		for nc := range t.inbound {
			nc.Close()
		}
	})
}

// outFrame is one frame queued on a connection's writer pump, with at most
// one payload source set (mat or payload; none for HELLO).
type outFrame struct {
	h       Header
	mat     *tensor.Matrix
	payload []byte
	free    chan *tensor.Matrix // recycle destination for mat after staging
}

// tcpConn is one peer connection with its pumps.
type tcpConn struct {
	t    *TCP
	peer int
	nc   net.Conn
	fr   *FrameReader // over a silenceReader; the handshake may have read from it
	out  chan outFrame
	dead chan struct{} // the peer's down latch (see latch), set by register
}

// newTCPConn builds one peer connection's state.
func newTCPConn(t *TCP, peer int, nc net.Conn, fr *FrameReader) *tcpConn {
	return &tcpConn{t: t, peer: peer, nc: nc, fr: fr, out: make(chan outFrame, 128)}
}

// start launches the connection's reader and writer pumps.
func (c *tcpConn) start() {
	c.t.wg.Add(2)
	go c.writeLoop()
	go c.readLoop()
}

// writeBatchFrames caps how many queued frames one writev coalesces; with a
// header and a payload vector per frame the batch stays well under the
// kernel's iovec limit.
const writeBatchFrames = 32

// writeLoop drains queued frames in batches and hands each batch, headers
// and payloads interleaved, to the kernel as a single vectored write (see
// frameEncoder). Bursts (a group exchange, a step's micro-batches) collapse
// into one syscall; a lone frame costs exactly one. Staging buffers are
// recycled as soon as their bytes land in the encoder's arena, so senders
// reuse them without waiting on the socket.
func (c *tcpConn) writeLoop() {
	defer c.t.wg.Done()
	var (
		batch [writeBatchFrames]outFrame
		enc   frameEncoder
	)
	for {
		select {
		case batch[0] = <-c.out:
		case <-c.dead:
			return
		case <-c.t.closed:
			return
		}
		n := 1
	fill:
		for n < writeBatchFrames {
			select {
			case batch[n] = <-c.out:
				n++
			default:
				break fill
			}
		}
		iov, payloadBytes := enc.encode(batch[:n])
		if _, err := iov.WriteTo(c.nc); err != nil {
			c.t.ClosePeer(c.peer, err)
			return
		}
		c.t.framesSent.Add(int64(n))
		c.t.bytesSent.Add(int64(n*HeaderSize) + payloadBytes)
	}
}

// readLoop demultiplexes inbound frames to edges and the session inbox until
// the connection fails, which downs the peer (see ClosePeer).
func (c *tcpConn) readLoop() {
	defer c.t.wg.Done()
	var err error
	for err == nil {
		err = c.readFrame()
	}
	if errors.Is(err, os.ErrDeadlineExceeded) {
		err = fmt.Errorf("%w (silent past the %v heartbeat timeout)", err, time.Duration(c.t.silence.Load()))
	}
	select {
	case <-c.t.closed:
	case <-c.dead:
	default:
		c.t.ClosePeer(c.peer, err)
	}
}

// readFrame reads one inbound frame and routes it.
func (c *tcpConn) readFrame() error {
	t := c.t
	h, err := c.fr.ReadHeader()
	if err != nil {
		return fmt.Errorf("transport: read from rank %d: %w", c.peer, err)
	}
	t.framesRecv.Add(1)
	t.bytesRecv.Add(int64(HeaderSize) + int64(h.N))
	var msg SessionMsg
	switch h.Type {
	case FrameControl:
		payload := make([]byte, h.N)
		if err := c.fr.ReadBytes(payload); err != nil {
			return err
		}
		msg = SessionMsg{Peer: c.peer, Epoch: h.Epoch, Data: payload}
	case FrameTensor:
		mat := LeaseBuf(t.tensFree, int(h.Rows), int(h.Cols))
		if err := c.fr.ReadF64(mat.Data); err != nil {
			return err
		}
		msg = SessionMsg{Peer: c.peer, Epoch: h.Epoch, Tensor: mat, Class: int(h.A), Index: int(h.M)}
	case FrameData:
		return t.deliverData(c.fr, h)
	case FrameHeartbeat:
		return nil // pure liveness traffic: the read that carried it re-armed the silence deadline
	default:
		return fmt.Errorf("transport: unexpected frame type %d from rank %d", h.Type, c.peer)
	}
	select {
	case t.sess <- msg:
		return nil
	case <-t.closed:
		return ErrClosed
	}
}

// edgeSlot is the demux entry of one EdgeID: the currently open generation
// plus the latch the reader pump waits on when a frame for a not-yet-opened
// generation arrives.
type edgeSlot struct {
	st     *edgeState
	last   uint32        // highest epoch ever opened for this id (survives Retire)
	opened chan struct{} // closed and remade on each OpenEdge
}

// edgeState is one generation of a TCP edge's receive side.
type edgeState struct {
	epoch uint32
	in    chan Msg
	free  chan *tensor.Matrix
	dead  chan struct{} // closed when a newer generation replaces this one
}

// edgeSlotFor returns (creating if needed) the demux slot of id.
func (t *TCP) edgeSlotFor(id EdgeID) *edgeSlot {
	t.mu.Lock()
	defer t.mu.Unlock()
	sl, ok := t.edges[id]
	if !ok {
		sl = &edgeSlot{opened: make(chan struct{})}
		t.edges[id] = sl
	}
	return sl
}

// OpenEdge opens generation epoch+1 of edge id toward peer. Re-opening (a
// micro-batch geometry change) retires the previous generation: its held
// frames are dropped and in-flight frames for the new generation are held
// until this open. Both endpoints must open the same id once per geometry.
// After Retire(floor) the next generation starts at floor, so surviving
// ranks rebuilt with the same floor agree on epochs regardless of how many
// geometries each edge saw before the failure.
func (t *TCP) OpenEdge(id EdgeID, peer, cap int) (Edge, error) {
	sl := t.edgeSlotFor(id)
	t.mu.Lock()
	epoch := sl.last + 1
	if floor := t.epochFloor.Load(); epoch < floor {
		epoch = floor
	}
	sl.last = epoch
	if sl.st != nil {
		close(sl.st.dead)
	}
	sl.st = &edgeState{
		epoch: epoch,
		in:    make(chan Msg, cap),
		free:  make(chan *tensor.Matrix, cap),
		dead:  make(chan struct{}),
	}
	close(sl.opened)
	sl.opened = make(chan struct{})
	st := sl.st
	down := t.latch(peer)
	t.mu.Unlock()
	return &tcpEdge{t: t, peer: peer, id: id, st: st, down: down, sfree: make(chan *tensor.Matrix, cap)}, nil
}

// deliverData routes one edge frame: stale-generation frames (below the
// current generation or below the session's epoch floor) are discarded,
// frames for a generation not yet opened locally wait at the head of the
// stream (backpressuring the connection until the local endpoint catches
// up), current-generation frames are read into a recycled buffer and
// delivered to the edge inbox.
func (t *TCP) deliverData(fr *FrameReader, h Header) error {
	id := EdgeID{Bound: int(h.A), Dir: Dir(h.Flags), S: int(h.B), Q: int(h.C)}
	sl := t.edgeSlotFor(id)
	for {
		t.mu.Lock()
		st := sl.st
		wait := sl.opened
		floor := t.epochFloor.Load()
		t.mu.Unlock()
		if h.Epoch < floor {
			// A retired session generation's leftover: drop it even when no
			// live generation exists, or the dead traffic would wedge the
			// stream waiting for an open that never comes.
			return fr.Discard(h.N)
		}
		if st == nil || st.epoch < h.Epoch {
			select {
			case <-wait:
				continue
			case <-t.closed:
				return t.closeErr()
			}
		}
		if st.epoch > h.Epoch {
			return fr.Discard(h.N)
		}
		buf := LeaseBuf(st.free, int(h.Rows), int(h.Cols))
		if err := fr.ReadF64(buf.Data); err != nil {
			return err
		}
		select {
		case st.in <- Msg{M: int(h.M), Data: buf, Free: st.free}:
		case <-st.dead:
			// The edge was re-opened while we held the message: the step it
			// belonged to is gone; drop the buffer with it.
		case <-t.closed:
			return t.closeErr()
		}
		return nil
	}
}

// tcpEdge is one endpoint handle of a TCP edge generation: sends enqueue
// frames on the peer connection's writer pump; receives drain the local
// generation's inbox.
type tcpEdge struct {
	t     *TCP
	peer  int
	id    EdgeID
	st    *edgeState
	down  <-chan struct{}     // the peer's down latch
	sfree chan *tensor.Matrix // recycled serialization staging buffers
}

// header builds the frame header for micro-batch m of a rows x cols block.
func (e *tcpEdge) header(m, rows, cols int) Header {
	return Header{
		Type: FrameData, Flags: uint8(e.id.Dir),
		A: int32(e.id.Bound), B: int32(e.id.S), C: int32(e.id.Q),
		Epoch: e.st.epoch, M: int32(m), Rows: int32(rows), Cols: int32(cols),
	}
}

// send stages data into a recycled buffer and queues it for serialization;
// the writer pump recycles the staging buffer after the frame is written.
func (e *tcpEdge) send(m int, data *tensor.Matrix) error {
	buf := LeaseBuf(e.sfree, data.Rows, data.Cols)
	copy(buf.Data, data.Data)
	return e.t.enqueue(e.peer, outFrame{h: e.header(m, data.Rows, data.Cols), mat: buf, free: e.sfree})
}

// SendView stages a copy for serialization: unlike the in-process backend
// the sender's storage is never shared across the socket, so the zero-copy
// view contract degenerates to a copy here.
func (e *tcpEdge) SendView(m int, view *tensor.Matrix) error { return e.send(m, view) }

// SendCopy stages a copy for serialization.
func (e *tcpEdge) SendCopy(m int, data *tensor.Matrix) error { return e.send(m, data) }

// Recv returns the next delivered block of this edge generation. Once the
// peer is down it returns ErrPeerDown, after handing out every block
// delivered before.
func (e *tcpEdge) Recv(abort <-chan struct{}) (Msg, error) {
	select {
	case msg := <-e.st.in:
		return msg, nil
	case <-abort:
		return Msg{}, ErrAborted
	case <-e.st.dead:
		return Msg{}, ErrClosed
	case <-e.down:
		select {
		case msg := <-e.st.in:
			return msg, nil
		default:
			return Msg{}, fmt.Errorf("%w: rank %d: %v", ErrPeerDown, e.peer, e.t.DownErr(e.peer))
		}
	case <-e.t.closed:
		return Msg{}, e.t.closeErr()
	}
}
