package train

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"dapple/internal/transport"
)

// Elastic membership: the inverse of the WithReplan shrink. A fresh worker
// process dials the running coordinator (JoinSession), which admits it
// through a membership handshake — protocol version and manifest-hash
// checks, a fresh rank grant (dead ranks are never reused), the live peer
// list to dial — and parks it until the next step boundary. There the
// coordinator gathers a snapshot from the live primary ranks, re-plans the
// session at unchanged global batch size onto the grown rank set, fences the
// old transport generation behind a bumped epoch floor, and re-runs the
// handshake. Survivors and the joiner rebuild from the same state broadcast:
// DAPPLE trains synchronously, so a joiner needs exactly the state a
// survivor gets. The driver sees one *Recovered with Joined set and rewinds
// exactly one step.

// sessionVersion is the membership-protocol revision; a joiner built against
// a different revision is rejected at the door. Revision 7 drops the
// manifest's survivable flag: every worker reports a failed step and awaits
// the coordinator's verdict, where a revision-6 worker reading no flag would
// end its own session instead.
const sessionVersion = 7

// joinRequestMsg is the payload of a FrameJoinReq: who is knocking.
type joinRequestMsg struct {
	// V is the sender's sessionVersion.
	V int `json:"v"`
	// Addr is the joiner's listen address, so current and future members can
	// be told how to dial it.
	Addr string `json:"addr"`
}

// joinGrantMsg is the payload of an accepting FrameJoinGrant: everything a
// joiner needs to mesh with the running session before admission.
type joinGrantMsg struct {
	// Rank is the granted mesh rank — fresh, never a dead rank reused.
	Rank int `json:"rank"`
	// Coord is the coordinator's mesh rank.
	Coord int `json:"coord"`
	// Peers maps each live worker rank to its listen address.
	Peers map[int]string `json:"peers"`
	// Hash fingerprints the session's invariant manifest; the joiner verifies
	// the reconfig it is admitted under against it.
	Hash string `json:"hash"`
	// Heartbeat is the session's liveness interval; a positive value has the
	// joiner prove its own liveness (send-only) while admission is pending.
	Heartbeat        time.Duration `json:"heartbeat,omitempty"`
	HeartbeatTimeout time.Duration `json:"heartbeatTimeout,omitempty"`
}

// sessionHash fingerprints the parts of a manifest that are invariant across
// recoveries and expansions — the training problem itself, not its current
// placement. A joiner admitted under a manifest hashing differently than its
// grant is joining the wrong session.
func sessionHash(m *Manifest) string {
	raw, err := json.Marshal(struct {
		Net        []LayerSpec `json:"net"`
		Opt        OptSpec     `json:"opt"`
		GBS        int         `json:"gbs"`
		MicroBatch int         `json:"microBatch"`
		Workers    int         `json:"workers"`
	}{m.Net, m.Opt, m.GBS, m.MicroBatch, m.Workers})
	if err != nil {
		return "unhashable"
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

// serviceJoin answers one membership knock: version-check the request, grant
// a fresh rank and the live peer map, and track the joiner until its mesh is
// complete. Runs only inside the coordinator's receive loop (await).
func (c *Coordinator) serviceJoin(j *transport.JoinRequest) {
	if c.joining == nil {
		j.Reject("session is not elastic")
		return
	}
	var req joinRequestMsg
	if err := json.Unmarshal(j.Payload, &req); err != nil {
		j.Reject(fmt.Sprintf("bad join request: %v", err))
		return
	}
	if req.V != sessionVersion {
		j.Reject(fmt.Sprintf("session protocol version %d, want %d", req.V, sessionVersion))
		return
	}
	if req.Addr == "" {
		j.Reject("joiner must listen: peers need an address to dial")
		return
	}
	rank := c.nextRank
	grant := joinGrantMsg{
		Rank: rank, Coord: c.coord, Hash: c.manHash,
		Peers:     make(map[int]string, len(c.alive)),
		Heartbeat: c.cfg.hbInterval, HeartbeatTimeout: c.cfg.hbTimeout,
	}
	for _, r := range c.alive {
		grant.Peers[r] = c.addrs[r]
	}
	reply, err := json.Marshal(grant)
	if err != nil {
		j.Reject(err.Error())
		return
	}
	if err := j.Grant(rank, reply); err != nil {
		return // the knocker vanished; its rank was never used
	}
	c.nextRank++
	c.joining[rank] = true
	c.addrs[rank] = req.Addr
}

// noteJoinReady moves a granted joiner to admission-pending: its ctrlJoin
// proves it is meshed with every live rank and ready for a reconfig.
func (c *Coordinator) noteJoinReady(peer int) {
	if c.joining == nil || !c.joining[peer] {
		return // unknown or duplicate announcement; drop
	}
	delete(c.joining, peer)
	c.joinReady = append(c.joinReady, peer)
}

// drainJoins is await's non-blocking form, run at a step boundary: it
// services every queued membership knock, join announcement and abort, drops
// everything else (stale leftovers of a previous generation) and returns as
// soon as nothing is queued. Only the coordinator's goroutine drains the
// session and join inboxes, so one that is not empty never blocks the next
// receive.
func (c *Coordinator) drainJoins(ctx context.Context) {
	idle := func() bool { return len(c.t.Session()) == 0 && len(c.t.Joins()) == 0 }
	c.await(ctx, wait{done: idle}) //nolint:errcheck // evidence lands via ClosePeer; the step barrier acts on it
}

// takeReady pops the admission-pending joiners that are still alive,
// forgetting any that died while parked.
func (c *Coordinator) takeReady() []int {
	if len(c.joinReady) == 0 {
		return nil
	}
	js := make([]int, 0, len(c.joinReady))
	for _, r := range c.joinReady {
		if c.t.DownErr(r) == nil {
			js = append(js, r)
		} else {
			delete(c.addrs, r)
		}
	}
	c.joinReady = c.joinReady[:0]
	sort.Ints(js)
	return js
}

// dropDead forgets the elastic bookkeeping of dead ranks, so grants never
// advertise a dead peer's address and admission never waits on a corpse.
func (c *Coordinator) dropDead(dead map[int]bool) {
	if c.joining == nil {
		return
	}
	for r := range dead {
		delete(c.joining, r)
		delete(c.addrs, r)
	}
	keep := c.joinReady[:0]
	for _, r := range c.joinReady {
		if !dead[r] {
			keep = append(keep, r)
		}
	}
	c.joinReady = keep
}

// Alive returns the worker ranks of the current session generation,
// ascending.
func (c *Coordinator) Alive() []int {
	return append([]int(nil), c.alive...)
}

// AwaitJoin blocks until a joiner is admission-pending — the next Step will
// expand onto it — or until a session member dies (the next Step must run
// the shrink recovery first), returning nil in both cases so the driver's
// reaction is the same: keep stepping. It fails when the session or ctx
// ends, or a worker aborts without death evidence. Only valid on an elastic
// session.
func (c *Coordinator) AwaitJoin(ctx context.Context) error {
	if !c.cfg.elastic {
		return fmt.Errorf("train: session is not elastic")
	}
	if c.failed != nil {
		return c.failed
	}
	done := func() bool {
		for _, r := range c.joinReady {
			if c.t.DownErr(r) == nil {
				return true
			}
		}
		for _, r := range c.alive {
			if c.t.DownErr(r) != nil {
				return true
			}
		}
		return false
	}
	err := c.await(ctx, wait{done: done})
	if err != nil && done() {
		return nil // fresh death evidence ends the wait like the death itself
	}
	return err
}

// admit expands the session onto the admission-pending joiners and shapes
// the *Recovered the interrupted Step reports. An expansion failure falls
// back to the shrink recovery: joiners that made it into the membership
// stay, joiners that never did are re-parked for the next boundary, and the
// driver sees the combined delta.
func (c *Coordinator) admit(ctx context.Context, js []int) error {
	err := c.expand(ctx, js)
	if err == nil {
		return &Recovered{Resume: c.step, Joined: js}
	}
	if ctx.Err() != nil {
		return c.fail(err)
	}
	lost, rerr := c.recover(ctx, err)
	if rerr != nil {
		return c.fail(rerr)
	}
	member := make(map[int]bool, len(c.alive))
	for _, r := range c.alive {
		member[r] = true
	}
	var joined []int
	for _, j := range js {
		switch {
		case member[j]:
			joined = append(joined, j)
		case c.t.DownErr(j) == nil:
			c.joinReady = append(c.joinReady, j)
		}
	}
	return &Recovered{Resume: c.step, Lost: lost, Joined: joined, Cause: err}
}

// expand grows the session at a step boundary: snapshot first — gathered
// from the live primary ranks, so the broadcast state is this boundary's,
// not a stale checkpoint — then reshape the session onto the membership
// merged with the joiners. As in recover, the rebuild budget bounds every
// wait, so a rank that stops answering mid-expansion is shrunk around.
func (c *Coordinator) expand(ctx context.Context, js []int) error {
	defer c.rebuild()()
	if err := c.snapshot(ctx); err != nil {
		return fmt.Errorf("train: pre-expansion snapshot: %w", err)
	}
	merged := append(append([]int(nil), c.alive...), js...)
	sort.Ints(merged)
	return c.reshape(ctx, merged)
}

// JoinSession runs the joiner's half of the membership handshake against a
// running elastic session: knock on the coordinator at coordAddr, receive
// the rank grant, dial every live peer, and announce readiness. The returned
// Worker is parked until the coordinator's next step boundary admits it —
// run Serve to wait for that admission and then train as a normal member.
// The transport must be listening (ListenTCP) and not yet ranked or dialed.
func JoinSession(ctx context.Context, t *transport.TCP, coordAddr string) (*Worker, error) {
	if t.Addr() == "" {
		return nil, fmt.Errorf("train: a joining worker's transport must listen (use ListenTCP)")
	}
	raw, err := json.Marshal(joinRequestMsg{V: sessionVersion, Addr: t.Addr()})
	if err != nil {
		return nil, err
	}
	rank, granter, reply, err := t.DialJoin(ctx, coordAddr, raw)
	if err != nil {
		return nil, err
	}
	var grant joinGrantMsg
	if err := json.Unmarshal(reply, &grant); err != nil {
		return nil, fmt.Errorf("train: bad join grant: %w", err)
	}
	if grant.Rank != rank || grant.Coord != granter {
		return nil, fmt.Errorf("train: join grant names rank %d under coordinator %d, frame carried %d under %d",
			grant.Rank, grant.Coord, rank, granter)
	}
	peers := make([]int, 0, len(grant.Peers))
	for r := range grant.Peers {
		peers = append(peers, r)
	}
	sort.Ints(peers)
	for _, r := range peers {
		if err := t.DialRetry(ctx, r, grant.Peers[r]); err != nil {
			return nil, fmt.Errorf("train: joining rank %d dialing rank %d: %w", rank, r, err)
		}
	}
	w := NewWorker(t, rank)
	w.coord = grant.Coord
	w.grant = &grant
	if grant.Heartbeat > 0 {
		// Send-only: prove this rank's liveness while admission is pending;
		// the manifest's timeout replaces it once Serve is admitted.
		t.SetHeartbeat(grant.Heartbeat, 0)
	}
	if err := sendEnvelope(t, grant.Coord, envelope{Kind: ctrlJoin}); err != nil {
		return nil, err
	}
	return w, nil
}

// handshakeJoin is the admitted joiner's session entry: wait for the
// coordinator's reconfig, verify the manifest against the granted hash, and
// build the session from it like any veteran.
func (w *Worker) handshakeJoin(ctx context.Context) error {
	env, _, err := w.recv(ctx, 0)
	if err != nil {
		return err
	}
	switch env.Kind {
	case ctrlReconfig:
		if env.Manifest == nil {
			return fmt.Errorf("train: reconfig without manifest")
		}
		if h := sessionHash(env.Manifest); h != w.grant.Hash {
			return fmt.Errorf("train: session manifest hash %.12s does not match granted %.12s", h, w.grant.Hash)
		}
		return w.reconfig(ctx, env)
	case ctrlAbort:
		return fmt.Errorf("train: session aborted by coordinator before admission: %s", env.Err)
	default:
		return fmt.Errorf("train: joiner expected reconfig, got %q", env.Kind)
	}
}
