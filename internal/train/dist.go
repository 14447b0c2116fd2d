package train

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"time"

	"dapple/internal/core"
	"dapple/internal/hardware"
	"dapple/internal/model"
	"dapple/internal/nn"
	"dapple/internal/schedule"
	"dapple/internal/tensor"
	"dapple/internal/transport"
)

// The distributed session protocol: a coordinator process (mesh rank W for W
// workers) drives worker processes (ranks 0..W-1) through a lockstep.
// Control messages are JSON envelopes; bulk data (training state and
// per-step micro-batches) travels as out-of-band tensor frames on the same
// connections. Both arrive in one session inbox in the order their sender
// wrote them, so every wait is deterministic. Training state has one frame
// form on the wire in both directions and on disk (sendState and assembly in
// checkpoint.go): the coordinator broadcasts it to every rank that builds a
// session, veteran or joiner, and primary ranks send it back for snapshots.
// The handshake is manifest → state broadcast →
// weights-done (step counters and the checkpoint CRC) → ready; each step is
// step → micro-batch tensors → step-done, and the coordinator gates step k+1
// on every worker's step-k report. Every control and tensor
// frame's header carries its sender's session generation (the transport
// epoch floor), so each side drops a torn generation's leftovers with one
// comparison: the coordinator in await, the worker in accept.
//
// Failure has one path. A rank's transport downs a dead peer and nothing
// else (transport heartbeats, WithHeartbeat, also catch hung ones); a worker
// whose step or rebuild fails reports the ranks it saw die and waits for the
// coordinator's verdict. The coordinator alone decides, at the step barrier:
// with WithReplan it retires the torn generation (transport epoch floor),
// re-plans onto the survivors, restores the last consistent snapshot and
// re-runs the handshake — the failed Step returns *Recovered telling the
// driver where to rewind its data feed. Without it, it broadcasts an abort,
// so any failure anywhere ends the session everywhere. Either way no torn
// cross-process update can exist: updates commit only at step boundaries.
const (
	ctrlManifest    = "manifest"
	ctrlWeightsDone = "weights-done"
	ctrlReady       = "ready"
	ctrlStep        = "step"
	ctrlStepDone    = "step-done"
	ctrlAbort       = "abort"
	ctrlShutdown    = "shutdown"
	ctrlShutdownAck = "shutdown-ack"
	ctrlSnapshot    = "snapshot"
	ctrlSnapAck     = "snap-ack"
	ctrlReconfig    = "reconfig"
	ctrlJoin        = "join"
)

// Tensor classes multiplexed on the session mesh's out-of-band tensor plane.
// Training state uses the first and last in both directions (see sendState).
const (
	tensWeight = 1 // one weight, Index = position in Params()
	tensX      = 2 // one micro-batch's input rows, Index = micro-batch id
	tensY      = 3 // one micro-batch's labels as a rows×1 matrix
	tensOptS   = 4 // one optimizer slot vector, Index = slot*nparams + param
)

// LayerSpec describes one nn layer structurally, enough for a worker to
// rebuild the master network's skeleton before the weight broadcast fills it.
type LayerSpec struct {
	// Kind is "dense", "relu" or "tanh".
	Kind string `json:"kind"`
	// In and Out are the dense layer's dimensions (zero for activations).
	In  int `json:"in,omitempty"`
	Out int `json:"out,omitempty"`
}

// OptSpec names the optimizer every replica instantiates, so all processes
// apply identical update rules to identical gradients.
type OptSpec struct {
	// Kind is "sgd", "momentum" or "adam".
	Kind string `json:"kind"`
	// LR is the learning rate.
	LR float64 `json:"lr"`
	// Beta is the momentum coefficient (momentum only).
	Beta float64 `json:"beta,omitempty"`
}

// Factory returns the optimizer constructor the spec names.
func (o OptSpec) Factory() (func() nn.Optimizer, error) {
	switch o.Kind {
	case "sgd":
		return func() nn.Optimizer { return nn.SGD{LR: o.LR} }, nil
	case "momentum":
		return func() nn.Optimizer { return nn.NewMomentum(o.LR, o.Beta) }, nil
	case "adam":
		return func() nn.Optimizer { return nn.NewAdam(o.LR) }, nil
	default:
		return nil, fmt.Errorf("train: unknown optimizer %q", o.Kind)
	}
}

// Slots returns how many per-parameter state vectors the named optimizer
// keeps — the number of tensOptS frames per parameter in a state transfer.
func (o OptSpec) Slots() int {
	switch o.Kind {
	case "momentum":
		return 1
	case "adam":
		return 2
	}
	return 0
}

// stageSpec is one plan stage in wire form.
type stageSpec struct {
	Lo      int   `json:"lo"`
	Hi      int   `json:"hi"`
	Devices []int `json:"devices"`
}

// Manifest is the session description the coordinator hands every worker:
// everything needed to reconstruct the plan and the network skeleton and to
// place itself in the mesh. Weights are NOT in the manifest — they follow as
// tensor frames so the JSON stays small.
type Manifest struct {
	// Model and Cluster rebind the plan on the worker side.
	Model   model.Model      `json:"model"`
	Cluster hardware.Cluster `json:"cluster"`
	// Stages, GBS and MicroBatch complete the plan.
	Stages     []stageSpec `json:"stages"`
	GBS        int         `json:"gbs"`
	MicroBatch int         `json:"microBatch"`
	// Policy and Recompute mirror ExecOptions.
	Policy    int  `json:"policy"`
	Recompute bool `json:"recompute"`
	// Net is the network skeleton; Opt the shared optimizer.
	Net []LayerSpec `json:"net"`
	Opt OptSpec     `json:"opt"`
	// DeviceRanks maps every cluster device to its hosting worker rank.
	DeviceRanks []int `json:"deviceRanks"`
	// Workers is the initial worker count; the coordinator is mesh rank
	// Workers for the session's whole life, across recoveries.
	Workers int `json:"workers"`
	// Ranks lists the worker ranks participating in this session
	// generation (shrinks after a recovery, grows after an expansion).
	Ranks []int `json:"ranks"`
	// Heartbeat and HeartbeatTimeout configure each rank's transport
	// liveness (TCP.SetHeartbeat; nanoseconds, zero disables).
	Heartbeat        time.Duration `json:"heartbeat,omitempty"`
	HeartbeatTimeout time.Duration `json:"heartbeatTimeout,omitempty"`
	// Epoch is the transport epoch floor of this session generation
	// (nonzero only in recovery manifests); workers Retire to it before
	// rebuilding their executors.
	Epoch uint32 `json:"epoch,omitempty"`
}

// envelope is the one wire shape of every control message; Kind selects
// which fields matter.
type envelope struct {
	Kind     string    `json:"kind"`
	Step     int       `json:"step,omitempty"`
	M        int       `json:"m,omitempty"`
	Loss     float64   `json:"loss,omitempty"`
	Err      string    `json:"err,omitempty"`
	Manifest *Manifest `json:"manifest,omitempty"`
	// Down carries death evidence on an abort: the ranks the sender saw go
	// down. The coordinator downs them too before it decides the session's
	// fate.
	Down []int `json:"downRanks,omitempty"`
	// OptStep rides on weights-done and snap-ack: the optimizer's update
	// counter belonging to the broadcast or gathered state.
	OptStep int `json:"optStep,omitempty"`
	// CRC rides on weights-done with Step: the CRC-32 trailer of the broadcast
	// checkpoint's version-2 image, whose frames are the broadcast's own. The
	// receiver re-encodes what it assembled and refuses to build on a mismatch.
	CRC uint32 `json:"crc,omitempty"`
}

// NetSpec extracts the structural skeleton of a network for the manifest.
func NetSpec(n *nn.Network) ([]LayerSpec, error) {
	spec := make([]LayerSpec, 0, n.NumLayers())
	for _, l := range n.Layers {
		switch d := l.(type) {
		case *nn.Dense:
			if err := checkDense(d.W.Rows, d.W.Cols); err != nil {
				return nil, err
			}
			spec = append(spec, LayerSpec{Kind: "dense", In: d.W.Rows, Out: d.W.Cols})
		case nn.ReLU:
			spec = append(spec, LayerSpec{Kind: "relu"})
		case nn.Tanh:
			spec = append(spec, LayerSpec{Kind: "tanh"})
		default:
			return nil, fmt.Errorf("train: layer %T has no wire spec", l)
		}
	}
	return spec, nil
}

// checkDense rejects a dense shape whose weight matrix cannot travel as one
// tensor frame, before anything of that size is allocated.
func checkDense(in, out int) error {
	if in <= 0 || out <= 0 || out > transport.MaxFramePayload/8/in {
		return fmt.Errorf("train: dense layer with shape %dx%d (a weight must fit one %d-byte tensor frame)",
			in, out, transport.MaxFramePayload)
	}
	return nil
}

// BuildNet constructs the skeleton a spec describes. Dense weights are
// placeholders until the coordinator's broadcast overwrites them.
func BuildNet(spec []LayerSpec) (*nn.Network, error) {
	rng := rand.New(rand.NewSource(0))
	net := &nn.Network{}
	for _, ls := range spec {
		switch ls.Kind {
		case "dense":
			if err := checkDense(ls.In, ls.Out); err != nil {
				return nil, err
			}
			net.Layers = append(net.Layers, nn.NewDense(ls.In, ls.Out, rng))
		case "relu":
			net.Layers = append(net.Layers, nn.ReLU{})
		case "tanh":
			net.Layers = append(net.Layers, nn.Tanh{})
		default:
			return nil, fmt.Errorf("train: unknown layer kind %q", ls.Kind)
		}
	}
	return net, nil
}

// sendEnvelope JSON-encodes and ships one control message.
func sendEnvelope(t *transport.TCP, peer int, env envelope) error {
	raw, err := json.Marshal(env)
	if err != nil {
		return err
	}
	return t.SendControl(peer, raw)
}

// sessionConfig is the resolved set of session options.
type sessionConfig struct {
	hbInterval      time.Duration
	hbTimeout       time.Duration
	stepTimeout     time.Duration
	shutdownTimeout time.Duration
	ckptDir         string
	ckptEvery       int
	ckptKeep        int
	replan          ReplanFunc
	elastic         bool
	addrs           map[int]string
}

// ReplanFunc produces a new plan for the surviving worker ranks after a
// failure: alive lists the live ranks ascending; the returned device-rank
// map must place every device of the new plan's cluster onto one of them.
// DAPPLE makes this cheap — a fresh plan for the shrunk device set is one
// Engine.Plan call.
type ReplanFunc func(alive []int) (*core.Plan, []int, error)

// SessionOption configures a Coordinator beyond the required arguments.
type SessionOption func(*sessionConfig)

// WithHeartbeat enables the liveness plane on every rank's transport
// (TCP.SetHeartbeat): heartbeats every interval, and a peer silent for
// timeout while the rank reads from it is declared dead. The timeout must
// comfortably exceed the interval (10x is a sane start).
func WithHeartbeat(interval, timeout time.Duration) SessionOption {
	return func(c *sessionConfig) { c.hbInterval, c.hbTimeout = interval, timeout }
}

// WithStepTimeout bounds each step's report barrier: ranks that have not
// reported when it expires are declared dead. This catches ranks that are
// hung but still heartbeating (a frozen edge, a deadlocked stage). Zero
// disables.
func WithStepTimeout(d time.Duration) SessionOption {
	return func(c *sessionConfig) { c.stepTimeout = d }
}

// WithShutdownTimeout bounds Close's shutdown-ack barrier, so a hung worker
// cannot block a clean shutdown forever. The default is 10s.
func WithShutdownTimeout(d time.Duration) SessionOption {
	return func(c *sessionConfig) { c.shutdownTimeout = d }
}

// WithCheckpoint persists consistent snapshots under dir every `every`
// steps, and restores the latest valid checkpoint at session start;
// recovery restores the last snapshot from memory, the state the directory
// holds once its write lands. Snapshots are gathered from the workers at
// step boundaries, so they are always torn-update-free. Each is written in
// the background while the next steps run, one write in flight, so a killed
// coordinator may resume one snapshot earlier than the last Step that
// returned; Close makes the newest snapshot durable, and a failed write
// ends the session at the next snapshot, recovery or Close.
func WithCheckpoint(dir string, every int) SessionOption {
	return func(c *sessionConfig) { c.ckptDir, c.ckptEvery = dir, every }
}

// WithReplan makes the session survive worker death: on a detected failure
// the coordinator re-plans onto the surviving ranks with fn, restores the
// last snapshot, and resumes. Without this option any failure ends the
// session on every rank.
func WithReplan(fn ReplanFunc) SessionOption {
	return func(c *sessionConfig) { c.replan = fn }
}

// WithCheckpointRetention prunes the checkpoint directory after every
// snapshot, keeping the keep newest files (plus, always, the newest valid
// checkpoint — see PruneCheckpoints), so a long session's checkpoint dir
// stays bounded. Zero (the default) disables pruning. Only meaningful with
// WithCheckpoint.
func WithCheckpointRetention(keep int) SessionOption {
	return func(c *sessionConfig) { c.ckptKeep = keep }
}

// WithElastic lets the session grow as well as shrink: the coordinator's
// transport (which must be listening) accepts membership handshakes from
// fresh dapple-worker processes (see JoinSession), admits them under fresh
// ranks and expands the session onto them at the next step boundary — the
// inverse of WithReplan's shrink, and it requires WithReplan (the same
// ReplanFunc re-plans the grown rank set). addrs maps every launch-time
// worker rank to its listen address, so joiners can be told whom to dial;
// joined workers' addresses are learned from their join requests.
func WithElastic(addrs map[int]string) SessionOption {
	return func(c *sessionConfig) {
		c.elastic = true
		c.addrs = make(map[int]string, len(addrs))
		for r, a := range addrs {
			c.addrs[r] = a
		}
	}
}

// Recovered is the error a Step that reshaped the session returns: the
// requested step did not run, training state was rewound to the last
// consistent snapshot, and the session now runs on a different rank set — a
// shrink after a failure (Lost), an expansion onto admitted joiners
// (Joined), or both when an expansion and a death raced. The caller rewinds
// its data feed to step Resume and continues.
type Recovered struct {
	// Resume is the next step index to run (the restored snapshot's step).
	Resume int
	// Lost lists the ranks removed from the session, ascending.
	Lost []int
	// Joined lists the freshly admitted ranks now in the session, ascending.
	Joined []int
	// Cause is the failure that triggered the recovery; nil for a pure
	// expansion, which no failure triggers.
	Cause error
}

// Error implements error.
func (r *Recovered) Error() string {
	if r.Cause == nil {
		return fmt.Sprintf("train: session expanded onto joined ranks %v; resume at step %d", r.Joined, r.Resume)
	}
	if len(r.Joined) > 0 {
		return fmt.Sprintf("train: session recovered from %v (lost ranks %v, joined ranks %v); resume at step %d",
			r.Cause, r.Lost, r.Joined, r.Resume)
	}
	return fmt.Sprintf("train: session recovered from %v (lost ranks %v); resume at step %d", r.Cause, r.Lost, r.Resume)
}

// Coordinator drives a multi-process training session from the non-worker
// side: it owns no devices, ships the manifest, the weights and optimizer
// state, and each step's micro-batches to every worker, and gates each step
// on all workers' reports. With WithReplan it heals the session around dead
// workers; otherwise the first error anywhere ends it.
type Coordinator struct {
	t      *transport.TCP
	cfg    sessionConfig
	plan   *core.Plan
	master *nn.Network
	opt    OptSpec
	eo     ExecOptions

	coord       int   // the coordinator's mesh rank, constant across recoveries
	alive       []int // live worker ranks, ascending
	deviceRanks []int
	gen         int // session generation, bumped per recovery
	step        int
	snapEvery   int
	ckpt        *Checkpoint
	writing     chan error // outcome of the in-flight checkpoint write; nil when idle
	werr        error      // the first checkpoint write or prune failure
	failed      error
	rebuilding  bool // a recover or expand is in flight: waits are budgeted by peerWaitTimeout

	// Elastic membership (all nil/zero unless WithElastic). Touched only by
	// the goroutine driving the coordinator, so no locking.
	nextRank  int            // next rank to grant; joiners never reuse dead ranks
	joining   map[int]bool   // granted a rank, still meshing
	joinReady []int          // meshed and admission-pending
	addrs     map[int]string // listen address per live or joining rank
	manHash   string         // invariant-manifest hash joiners must match

	yfree chan *tensor.Matrix // recycled per-micro label staging buffers
}

// NewCoordinator performs the session handshake over an already-connected
// mesh (t must be dialed to worker ranks 0..workers-1 with rank workers):
// manifest to every worker, weight and optimizer-state broadcast in Params()
// order, weights-done, then a ready barrier. With WithCheckpoint, the latest
// valid checkpoint under the directory is restored first, so a restarted
// session resumes where the previous one left off. On return every worker
// holds an executor with identical state and the session is ready to Step.
func NewCoordinator(ctx context.Context, t *transport.TCP, p *core.Plan, master *nn.Network, opt OptSpec, eo ExecOptions, deviceRanks []int, workers int, opts ...SessionOption) (*Coordinator, error) {
	cfg := sessionConfig{shutdownTimeout: 10 * time.Second}
	for _, o := range opts {
		o(&cfg)
	}
	if _, err := opt.Factory(); err != nil {
		return nil, err
	}
	if n := p.Cluster.NumDevices(); len(deviceRanks) < n {
		return nil, fmt.Errorf("train: device-rank map covers %d of %d devices", len(deviceRanks), n)
	}
	c := &Coordinator{
		t: t, cfg: cfg, plan: p, master: master, opt: opt, eo: eo,
		coord: workers, deviceRanks: deviceRanks,
		yfree: make(chan *tensor.Matrix, 16),
	}
	for r := 0; r < workers; r++ {
		c.alive = append(c.alive, r)
	}
	man, err := c.manifest() // validates the skeleton before the checkpoint copies it
	if err != nil {
		return nil, err
	}
	c.snapEvery = cfg.ckptEvery
	if c.snapEvery <= 0 && cfg.replan != nil {
		c.snapEvery = 1 // recovery needs a recent consistent snapshot
	}
	factory, _ := opt.Factory()
	c.ckpt = CaptureCheckpoint(0, master, factory())
	if cfg.ckptDir != "" {
		saved, _, err := LatestCheckpoint(cfg.ckptDir)
		if err != nil {
			return nil, err
		}
		if saved != nil {
			if err := saved.Restore(master, factory()); err != nil {
				return nil, fmt.Errorf("train: checkpoint restore: %w", err)
			}
			c.ckpt = saved
		}
	}
	c.step = c.ckpt.Step
	if cfg.elastic {
		if cfg.replan == nil {
			return nil, fmt.Errorf("train: WithElastic requires WithReplan")
		}
		if t.Addr() == "" {
			return nil, fmt.Errorf("train: an elastic coordinator's transport must listen (use ListenTCP)")
		}
		for r := 0; r < workers; r++ {
			if cfg.addrs[r] == "" {
				return nil, fmt.Errorf("train: WithElastic is missing worker %d's listen address", r)
			}
		}
		c.nextRank = workers + 1
		c.joining = map[int]bool{}
		c.addrs = cfg.addrs
		c.manHash = sessionHash(man)
		t.SetAcceptJoins(true)
	}
	if err := c.handshake(ctx, ctrlManifest); err != nil {
		return nil, err
	}
	if cfg.hbInterval > 0 {
		t.SetHeartbeat(cfg.hbInterval, cfg.hbTimeout)
	}
	return c, nil
}

// manifest assembles the current generation's session description.
func (c *Coordinator) manifest() (*Manifest, error) {
	net, err := NetSpec(c.master)
	if err != nil {
		return nil, err
	}
	man := &Manifest{
		Model: *c.plan.Model, Cluster: c.plan.Cluster,
		GBS: c.plan.GBS, MicroBatch: c.plan.MicroBatch,
		Policy: int(c.eo.Policy), Recompute: c.eo.Recompute,
		Net: net, Opt: c.opt, DeviceRanks: c.deviceRanks,
		Workers:   c.coord,
		Ranks:     append([]int(nil), c.alive...),
		Heartbeat: c.cfg.hbInterval, HeartbeatTimeout: c.cfg.hbTimeout,
		Epoch: c.floor(),
	}
	for _, s := range c.plan.Stages {
		ss := stageSpec{Lo: s.Lo, Hi: s.Hi}
		for _, d := range s.Devices {
			ss.Devices = append(ss.Devices, int(d))
		}
		man.Stages = append(man.Stages, ss)
	}
	return man, nil
}

// floor is the transport epoch floor of the current session generation.
// Generations are spaced far enough apart that no edge re-opens its way
// from one generation into the next.
func (c *Coordinator) floor() uint32 {
	if c.gen == 0 {
		return 0
	}
	return uint32(c.gen) << 16
}

// handshake runs the session handshake on the current membership: the
// current manifest in an envelope of the given kind (ctrlManifest first,
// ctrlReconfig on every re-plan), then the session's authoritative training
// state — the checkpoint, sent alike to veterans and joiners — closed by a
// weights-done carrying its step counters and CRC, then the ready barrier.
// Every frame carries the generation's epoch in its header, which is all a
// worker needs to tell it from a torn generation's leftovers.
func (c *Coordinator) handshake(ctx context.Context, kind string) error {
	man, err := c.manifest()
	if err != nil {
		return err
	}
	head := envelope{Kind: kind, Manifest: man}
	done := envelope{Kind: ctrlWeightsDone, Step: c.ckpt.Step, OptStep: c.ckpt.OptStep, CRC: c.ckpt.checksum()}
	for _, w := range c.alive {
		if err := sendEnvelope(c.t, w, head); err != nil {
			return err
		}
		if err := sendState(toPeer(c.t, w), 0, len(c.ckpt.Weights), c.ckpt.Weights, c.ckpt.Slots); err != nil {
			return err
		}
		if err := sendEnvelope(c.t, w, done); err != nil {
			return err
		}
	}
	return c.readyBarrier(ctx)
}

// A wait is one coordinator barrier: the ranks it still needs a report
// from, what it does with each current-generation frame, and when it is over.
type wait struct {
	what    string        // names the wait in errors
	pending map[int]bool  // ranks owing a report: one going down fails the wait
	limit   time.Duration // budget (0: none); silent pending ranks are declared down when it runs out
	done    func() bool   // the wait is over; nil means once pending is empty

	// ctrl takes every envelope but join and abort, returning false for a
	// kind the wait does not expect; tensor takes out-of-band tensors. Nil
	// handlers drop their frames.
	ctrl   func(peer int, env envelope) bool
	tensor func(sm transport.SessionMsg) error
}

// await is the coordinator's one receive loop; every barrier of the session
// protocol is a call to it. It decodes each envelope, services
// membership knocks and join announcements, applies abort death evidence,
// drops frames stamped below the current floor (a torn round's leftovers)
// and hands the rest to the wait's handlers. It fails when a pending rank
// goes down, the budget runs out, the transport dies or ctx ends. While a
// recover or expand is in flight the budget is at most peerWaitTimeout, the
// bound workers put on the same rebuild's mesh wait.
func (c *Coordinator) await(ctx context.Context, w wait) error {
	done := w.done
	if done == nil {
		done = func() bool { return len(w.pending) == 0 }
	}
	limit := w.limit
	if c.rebuilding && (limit == 0 || limit > peerWaitTimeout) {
		limit = peerWaitTimeout
	}
	var expire <-chan time.Time
	if limit > 0 {
		tmr := time.NewTimer(limit)
		defer tmr.Stop()
		expire = tmr.C
	}
	for !done() {
		downs, dwait := c.t.PeerDowns()
		for _, r := range downs {
			if w.pending[r] {
				return fmt.Errorf("train: rank %d down in the %s wait at step %d: %w", r, w.what, c.step, c.t.DownErr(r))
			}
		}
		select {
		case sm := <-c.t.Session():
			var env envelope
			var err error
			if sm.Tensor == nil {
				err = json.Unmarshal(sm.Data, &env)
			}
			switch {
			case err != nil:
				return fmt.Errorf("train: bad control frame from rank %d: %w", sm.Peer, err)
			case sm.Tensor != nil && (sm.Epoch < c.floor() || w.tensor == nil):
				c.t.RecycleTensor(sm.Tensor)
			case sm.Tensor != nil:
				err = w.tensor(sm)
			case env.Kind == ctrlJoin:
				c.noteJoinReady(sm.Peer)
			case env.Kind == ctrlAbort:
				err = c.noteAbort(sm.Peer, env)
			case sm.Epoch >= c.floor() && w.ctrl != nil && !w.ctrl(sm.Peer, env):
				err = fmt.Errorf("train: rank %d sent %q in the %s wait: %s", sm.Peer, env.Kind, w.what, env.Err)
			}
			if err != nil {
				return err
			}
		case j := <-c.t.Joins():
			c.serviceJoin(j)
		case <-dwait:
		case <-expire:
			err := fmt.Errorf("train: %s wait at step %d timed out after %v", w.what, c.step, limit)
			for r := range w.pending {
				c.t.ClosePeer(r, err)
			}
			return err
		case <-c.t.Done():
			return c.t.Err()
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

// members returns the live worker ranks as a wait's pending set.
func (c *Coordinator) members() map[int]bool {
	pending := make(map[int]bool, len(c.alive))
	for _, w := range c.alive {
		pending[w] = true
	}
	return pending
}

// readyBarrier waits for every live worker's ready. A worker dying during
// the barrier fails it — the caller decides between ending the session and
// another recovery round.
func (c *Coordinator) readyBarrier(ctx context.Context) error {
	pending := c.members()
	return c.await(ctx, wait{what: "handshake", pending: pending, ctrl: func(peer int, env envelope) bool {
		if env.Kind != ctrlReady {
			return false
		}
		delete(pending, peer)
		return true
	}})
}

// noteAbort processes a worker's abort envelope. Fresh death evidence downs
// the named ranks and fails the current wait, so Step sees them; evidence
// naming only ranks the session has already removed is a stale report from
// before a recovery and is dropped (nil). An abort without evidence is a
// worker-level failure: it fails the wait, and no rank died.
func (c *Coordinator) noteAbort(peer int, env envelope) error {
	if len(env.Down) == 0 {
		return fmt.Errorf("train: rank %d aborted: %s", peer, env.Err)
	}
	alive := make(map[int]bool, len(c.alive))
	for _, r := range c.alive {
		alive[r] = true
	}
	fresh := false
	for _, r := range env.Down {
		if r != c.coord && alive[r] {
			fresh = true
			c.t.ClosePeer(r, fmt.Errorf("train: rank %d reported rank %d down: %s", peer, r, env.Err))
		}
	}
	if !fresh {
		return nil
	}
	return fmt.Errorf("train: rank %d reported ranks %v down: %s", peer, env.Down, env.Err)
}

// CompletedSteps is the number of training steps the session has completed —
// zero on a fresh session, the restored checkpoint's step count after a
// restart. The data feed's next iteration is this index.
func (c *Coordinator) CompletedSteps() int { return c.step }

// Step runs one distributed training iteration: micro-batches to every
// worker, then a barrier on all step reports. The returned loss is the sum
// of the workers' last-stage partial losses — the same micro-batch-averaged
// cross-entropy a single-process ExecResult reports.
//
// On failure the coordinator decides the session's fate. With WithReplan it
// recovers — re-plans onto the live ranks, restores the last snapshot — and
// returns *Recovered; the caller rewinds to Recovered.Resume and keeps
// stepping. Without it, or when recovery fails, every worker is told to
// abort and every later Step fails immediately.
func (c *Coordinator) Step(ctx context.Context, micros []Batch) (float64, error) {
	if c.failed != nil {
		return 0, c.failed
	}
	if c.cfg.elastic {
		c.drainJoins(ctx)
		if js := c.takeReady(); len(js) > 0 {
			return 0, c.admit(ctx, js)
		}
	}
	loss, err := c.tryStep(ctx, micros)
	if err == nil {
		c.step++
		if c.snapEvery > 0 && (c.step-c.ckpt.Step) >= c.snapEvery {
			err = c.snapshot(ctx)
		}
		if err == nil {
			return loss, nil
		}
	}
	if c.cfg.replan == nil {
		return 0, c.fail(err)
	}
	if ctx.Err() != nil {
		return 0, c.fail(err) // cancellation is the caller's intent, not a rank failure
	}
	lost, rerr := c.recover(ctx, err)
	if rerr != nil {
		return 0, c.fail(rerr)
	}
	return 0, &Recovered{Resume: c.step, Lost: lost, Cause: err}
}

// tryStep ships one step and runs its report barrier, watching the liveness
// plane: a pending rank going down, or the step timeout expiring with ranks
// unreported, fails the step with death evidence instead of deadlocking.
func (c *Coordinator) tryStep(ctx context.Context, micros []Batch) (float64, error) {
	for _, w := range c.alive {
		if err := c.send(w, c.step, micros); err != nil {
			return 0, err
		}
	}
	pending := c.members()
	var loss float64
	err := c.await(ctx, wait{what: "step", pending: pending, limit: c.cfg.stepTimeout, ctrl: func(peer int, env envelope) bool {
		if env.Kind != ctrlStepDone {
			return false
		}
		if pending[peer] {
			delete(pending, peer)
			loss += env.Loss
		}
		return true
	}})
	return loss, err
}

// send ships one step announcement and its micro-batches to worker w. Labels
// travel as a rows×1 float64 matrix beside each input block.
func (c *Coordinator) send(w, step int, micros []Batch) error {
	if err := sendEnvelope(c.t, w, envelope{Kind: ctrlStep, Step: step, M: len(micros)}); err != nil {
		return err
	}
	for mb, b := range micros {
		if err := c.t.SendTensor(w, tensX, mb, b.X, nil); err != nil {
			return err
		}
		y := transport.LeaseBuf(c.yfree, len(b.Y), 1)
		for i, v := range b.Y {
			y.Data[i] = float64(v)
		}
		if err := c.t.SendTensor(w, tensY, mb, y, c.yfree); err != nil {
			return err
		}
	}
	return nil
}

// snapshot gathers a consistent checkpoint from the workers at the current
// step boundary and, when a checkpoint directory is configured, hands it to
// the background writer (persist) once the previous write has landed, so
// files reach the directory in step order.
// Each stage's state is sent by its primary rank (the lowest rank hosting
// one of its devices); gradient synchronization keeps all replicas of a
// stage identical, so one copy per stage reassembles the full master state.
// A rank's ack follows its share in its session inbox, so once every rank
// has acked, every state tensor has arrived.
func (c *Coordinator) snapshot(ctx context.Context) error {
	for _, w := range c.alive {
		if err := sendEnvelope(c.t, w, envelope{Kind: ctrlSnapshot}); err != nil {
			return err
		}
	}
	a := newAssembly(c.master.Params(), c.opt.Slots())
	a.ck.Step = c.step
	acks := c.members()
	err := c.await(ctx, wait{
		what: "snapshot", pending: acks,
		ctrl: func(peer int, env envelope) bool {
			if env.Kind != ctrlSnapAck {
				return false
			}
			delete(acks, peer)
			a.ck.OptStep = max(a.ck.OptStep, env.OptStep)
			return true
		},
		tensor: func(sm transport.SessionMsg) error { return a.put(sm.Class, sm.Index, sm.Tensor) },
	})
	if err == nil && a.left > 0 {
		err = fmt.Errorf("train: snapshot at step %d: every rank acked with %d state tensors missing", c.step, a.left)
	}
	if err != nil {
		return err
	}
	if err := c.settle(); err != nil {
		return err
	}
	c.ckpt = a.ck
	if c.cfg.ckptDir != "" {
		c.persist()
	}
	return nil
}

// persist writes c.ckpt to the checkpoint directory in the background —
// SaveCheckpoint, then PruneCheckpoints under the retention — while the
// session steps on. Nothing mutates a committed checkpoint, so the writer
// needs no lock. settle joins it.
func (c *Coordinator) persist() {
	ck, dir, keep := c.ckpt, c.cfg.ckptDir, c.cfg.ckptKeep
	done := make(chan error, 1)
	c.writing = done
	go func() {
		_, err := SaveCheckpoint(dir, ck)
		if err != nil {
			err = fmt.Errorf("train: checkpoint write: %w", err)
		} else if keep > 0 {
			if _, err = PruneCheckpoints(dir, keep); err != nil {
				err = fmt.Errorf("train: checkpoint prune: %w", err)
			}
		}
		done <- err
	}()
}

// settle waits for the in-flight checkpoint write, if any, and returns the
// session's first write or prune failure — once one failed, every later
// join reports it, so no failure is dropped. It is joined before the next
// write (snapshot), by recover and by Close.
func (c *Coordinator) settle() error {
	if c.writing != nil {
		if err := <-c.writing; c.werr == nil {
			c.werr = err
		}
		c.writing = nil
	}
	return c.werr
}

// recover heals the session after a failure: determine the dead set and
// reshape the session onto the survivors. Another rank dying mid-recovery,
// or a failed re-plan, starts the next round; recovery fails when no
// progress is possible (no rank died, or no survivors).
func (c *Coordinator) recover(ctx context.Context, cause error) ([]int, error) {
	if err := c.settle(); err != nil {
		return nil, err // a lost checkpoint write ends the session, whatever died
	}
	defer c.rebuild()()
	var lost []int
	attempts := len(c.alive) + 1
	for attempt := 0; attempt < attempts; attempt++ {
		downs, _ := c.t.PeerDowns()
		dead := make(map[int]bool, len(downs))
		for _, r := range downs {
			dead[r] = true
		}
		var alive []int
		for _, r := range c.alive {
			if dead[r] {
				lost = append(lost, r)
			} else {
				alive = append(alive, r)
			}
		}
		sort.Ints(lost)
		c.dropDead(dead)
		if len(alive) == len(c.alive) {
			return nil, fmt.Errorf("train: unrecoverable failure (no rank died): %w", cause)
		}
		if len(alive) == 0 {
			return nil, fmt.Errorf("train: no surviving workers: %w", cause)
		}
		err := c.reshape(ctx, alive)
		if err == nil {
			return lost, nil
		}
		if ctx.Err() != nil || c.t.Err() != nil {
			return nil, err
		}
		cause = err // the next round shrinks further, or finds no rank died
	}
	return nil, fmt.Errorf("train: recovery did not converge: %w", cause)
}

// reshape moves the session onto ranks, the one step of both a shrink
// (recover) and an expansion (expand): re-plan at unchanged global batch
// size, check the placement, start a new generation behind a raised epoch
// floor and run the handshake, which broadcasts c.ckpt — the last committed
// snapshot, the same state settle leaves in the checkpoint directory.
func (c *Coordinator) reshape(ctx context.Context, ranks []int) error {
	c.alive = ranks
	plan, deviceRanks, err := c.cfg.replan(ranks)
	if err != nil {
		return fmt.Errorf("train: re-plan onto %v: %w", ranks, err)
	}
	if err := validatePlacement(plan, deviceRanks, ranks); err != nil {
		return err
	}
	c.gen++
	c.t.Retire(c.floor())
	c.plan, c.deviceRanks = plan, deviceRanks
	c.step = c.ckpt.Step
	return c.handshake(ctx, ctrlReconfig)
}

// rebuild marks a recover or expand in flight until the returned func runs.
// Every wait of a rebuild is budgeted (see await), so a rank that goes
// silent mid-rebuild while its transport still heartbeats (a hung session
// loop) still ends the wait.
func (c *Coordinator) rebuild() (end func()) {
	c.rebuilding = true
	return func() { c.rebuilding = false }
}

// validatePlacement checks the re-plan's device map lands only on survivors.
func validatePlacement(p *core.Plan, deviceRanks []int, alive []int) error {
	if n := p.Cluster.NumDevices(); len(deviceRanks) < n {
		return fmt.Errorf("train: re-plan device map covers %d of %d devices", len(deviceRanks), n)
	}
	ok := make(map[int]bool, len(alive))
	for _, r := range alive {
		ok[r] = true
	}
	for d, r := range deviceRanks {
		if !ok[r] {
			return fmt.Errorf("train: re-plan places device %d on non-surviving rank %d", d, r)
		}
	}
	return nil
}

// fail latches the session's first error, tells every worker to abort, and
// tears the mesh down.
func (c *Coordinator) fail(err error) error {
	if c.failed == nil {
		c.failed = err
		for _, w := range c.alive {
			sendEnvelope(c.t, w, envelope{Kind: ctrlAbort, Err: err.Error()}) //nolint:errcheck // best-effort on a dying session
		}
		c.t.Close()
	}
	return c.failed
}

// Close ends a healthy session: shutdown to every worker, a barrier on
// their acks (so no worker is still mid-read when the connections drop)
// bounded by the shutdown timeout, then the mesh. On every path, a failed
// session's included, it waits for the in-flight checkpoint write, so the
// newest snapshot is on disk when it returns; a write that failed is its
// error.
func (c *Coordinator) Close() (err error) {
	defer func() {
		if werr := c.settle(); werr != nil {
			err = werr
		}
	}()
	if c.failed != nil {
		return nil
	}
	for _, w := range c.alive {
		if err := sendEnvelope(c.t, w, envelope{Kind: ctrlShutdown}); err != nil {
			return c.t.Close()
		}
	}
	pending := c.members()
	ack := func(peer int, env envelope) bool {
		if env.Kind == ctrlShutdownAck {
			delete(pending, peer)
		}
		return true
	}
	// A timeout, dead transport or downed rank ends the barrier: close anyway.
	c.await(context.Background(), wait{what: "shutdown", pending: pending, limit: c.cfg.shutdownTimeout, ctrl: ack}) //nolint:errcheck // see above
	return c.t.Close()
}

// Worker is one rank of a multi-process session: it receives the manifest
// and state, hosts its share of stage replicas in an Executor, and runs
// coordinator-gated steps until shutdown. A failed step is reported with
// death evidence and survived until the coordinator's verdict: an abort
// ends the worker, a reconfig rebuilds the executor onto the new plan.
type Worker struct {
	t    *transport.TCP
	rank int

	exec      *Executor
	man       *Manifest
	net       *nn.Network
	coord     int           // the coordinator's mesh rank; -1 until the manifest or grant names it
	epoch     uint32        // generation of the session this worker last built
	dieAtStep int           // scripted death for fault tests; -1 disables
	grant     *joinGrantMsg // non-nil on a worker admitted mid-session (JoinSession)

	microBuf []Batch // reused per-step micro-batch staging
	labelBuf [][]int // reused per-micro label staging
}

// NewWorker wraps an already-connected mesh (rank set, peers dialed) as a
// session worker.
func NewWorker(t *transport.TCP, rank int) *Worker {
	return &Worker{t: t, rank: rank, coord: -1, dieAtStep: -1}
}

// Executor returns the worker's executor, nil before the handshake.
func (w *Worker) Executor() *Executor { return w.exec }

// Rank returns the worker's mesh rank — assigned at construction for seed
// workers, granted by the coordinator for JoinSession workers.
func (w *Worker) Rank() int { return w.rank }

// SetDieAtStep scripts this worker's death: it tears down its transport and
// exits cleanly the moment the coordinator announces the given step — the
// deterministic "rank dies at step k" fault of the chaos harness. Negative
// disables (the default).
func (w *Worker) SetDieAtStep(step int) { w.dieAtStep = step }

// pull is the worker's one blocking receive: the next frame of the session
// inbox. It fails when the coordinator goes down or the transport dies with
// nothing left queued — a frame demuxed first, such as a shutdown that raced
// the teardown, still counts — or when ctx ends.
func (w *Worker) pull(ctx context.Context) (transport.SessionMsg, error) {
	var none transport.SessionMsg
	for {
		downs, dwait := w.t.PeerDowns() // before the peek: a down is reported after its conn's last frame
		select {
		case m := <-w.t.Session():
			return m, nil
		default:
		}
		if slices.Contains(downs, w.coord) {
			return none, fmt.Errorf("train: coordinator rank %d down: %w", w.coord, w.t.DownErr(w.coord))
		}
		select {
		case m := <-w.t.Session():
			return m, nil
		case <-dwait:
		case <-w.t.Done():
			if len(w.t.Session()) == 0 {
				return none, w.t.Err()
			}
		case <-ctx.Done():
			return none, ctx.Err()
		}
	}
}

// accept applies the worker's generation filter to one session frame,
// decoding a control frame's envelope: an abort always counts, a reconfig
// only when it is newer than the session this worker last built, anything
// else, tensors included, only when stamped at, the epoch of the session at
// hand. The rest (say, the state broadcast of an expansion round this rank
// bailed out of) is a torn round's leftover; a dropped tensor is recycled.
func (w *Worker) accept(sm transport.SessionMsg, at uint32) (env envelope, ok bool, err error) {
	if w.coord >= 0 && sm.Peer != w.coord {
		return env, false, fmt.Errorf("train: session frame from non-coordinator rank %d", sm.Peer)
	}
	if sm.Tensor != nil {
		ok = sm.Epoch == at
		if !ok {
			w.t.RecycleTensor(sm.Tensor)
		}
		return env, ok, nil
	}
	err = json.Unmarshal(sm.Data, &env)
	switch {
	case err != nil:
		return env, false, fmt.Errorf("train: bad control frame from rank %d: %w", sm.Peer, err)
	case env.Kind == ctrlAbort:
		return env, true, nil
	case env.Kind == ctrlReconfig:
		return env, sm.Epoch > w.epoch, nil
	}
	return env, sm.Epoch == at, nil
}

// recv blocks for the coordinator's next frame that accept lets through:
// an envelope, or a tensor (tm.Tensor non-nil) stamped at.
func (w *Worker) recv(ctx context.Context, at uint32) (env envelope, tm transport.SessionMsg, err error) {
	for {
		if tm, err = w.pull(ctx); err != nil {
			return env, tm, err
		}
		var ok bool
		if env, ok, err = w.accept(tm, at); ok || err != nil {
			return env, tm, err
		}
	}
}

// interrupted handles a frame other than the one the worker waits for: in
// place of a step's next tensor, during a step, or between steps anything
// but a step, snapshot or shutdown. A reconfig is returned to be processed
// next; an abort, any other envelope or a stray tensor ends the worker.
func (w *Worker) interrupted(env envelope, tm transport.SessionMsg) (*envelope, error) {
	switch {
	case tm.Tensor != nil:
		return nil, fmt.Errorf("train: unexpected tensor (class %d, index %d) from coordinator", tm.Class, tm.Index)
	case env.Kind == ctrlReconfig:
		return &env, nil
	case env.Kind == ctrlAbort:
		return nil, fmt.Errorf("train: session aborted by coordinator: %s", env.Err)
	}
	return nil, fmt.Errorf("train: unexpected %q from coordinator", env.Kind)
}

// Serve runs the worker side of the session protocol until shutdown (nil),
// session failure, or ctx cancellation. It must be called once, after the
// mesh is fully connected. It never fails silently: on any exit other than
// shutdown it sends the coordinator a best-effort abort naming this rank as
// down, so the coordinator decides at once, and closes the coordinator
// connection, so no wait is left on a rank that stopped serving.
func (w *Worker) Serve(ctx context.Context) (err error) {
	defer func() {
		if err != nil && w.coord >= 0 {
			sendEnvelope(w.t, w.coord, envelope{Kind: ctrlAbort, Err: err.Error(), Down: []int{w.rank}}) //nolint:errcheck // best-effort on the way out
			w.t.ClosePeer(w.coord, err)
		}
	}()
	if w.grant != nil {
		err = w.handshakeJoin(ctx)
	} else {
		err = w.handshake(ctx)
	}
	if err != nil {
		return err
	}
	if w.man.Heartbeat > 0 {
		// Replaces a joiner's send-only heartbeats from admission.
		w.t.SetHeartbeat(w.man.Heartbeat, w.man.HeartbeatTimeout)
	}
	for {
		env, tm, err := w.recv(ctx, w.epoch)
		if err != nil {
			return err
		}
		var next *envelope // a reconfig to rebuild onto
		switch env.Kind {
		case ctrlStep:
			if w.dieAtStep >= 0 && env.Step >= w.dieAtStep {
				w.t.Close()
				return nil
			}
			next, err = w.runStep(ctx, env)
		case ctrlSnapshot:
			err = w.sendSnapshot()
		case ctrlShutdown:
			// Ack, then hold the mesh open until the coordinator — who has
			// every worker's ack — tears it down: a worker closing early
			// would EOF peers that are still draining their own shutdown.
			sendEnvelope(w.t, w.coord, envelope{Kind: ctrlShutdownAck}) //nolint:errcheck // session is over either way
			w.awaitTeardown(ctx)
			return nil
		default:
			next, err = w.interrupted(env, tm)
		}
		if err == nil && next != nil {
			err = w.reconfig(ctx, *next)
		}
		if err != nil {
			return err
		}
	}
}

// awaitTeardown blocks (bounded) until the coordinator tears the session
// down after a clean shutdown, which downs the coordinator's connection.
func (w *Worker) awaitTeardown(ctx context.Context) {
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	for {
		if _, err := w.pull(ctx); err != nil {
			return
		}
	}
}

// handshake consumes the manifest, rebuilds the plan and network, fills the
// weights and optimizer state from the broadcast, constructs the executor
// and reports ready.
func (w *Worker) handshake(ctx context.Context) error {
	env, _, err := w.recv(ctx, 0)
	if err != nil {
		return err
	}
	if env.Kind != ctrlManifest || env.Manifest == nil {
		return fmt.Errorf("train: worker expected manifest, got %q", env.Kind)
	}
	man := env.Manifest
	w.man = man
	w.coord = man.Workers
	return w.buildSession(ctx, man)
}

// peerWaitTimeout bounds a session build's wait for mesh connections: a peer
// whose dial-in never lands (it died between being granted membership and
// its HELLO arriving) must not strand the whole rank forever.
var peerWaitTimeout = 30 * time.Second

// waitMesh blocks until this rank is connected to every participant of the
// manifest's generation (the listed workers plus the coordinator), so edge
// and group sends never race the dial-in of a slower-starting or freshly
// joined peer.
func (w *Worker) waitMesh(ctx context.Context, man *Manifest) error {
	peers := make([]int, 0, man.Workers+1)
	for _, r := range man.Ranks {
		if r != w.rank {
			peers = append(peers, r)
		}
	}
	peers = append(peers, man.Workers)
	wctx, cancel := context.WithTimeout(ctx, peerWaitTimeout)
	defer cancel()
	if err := w.t.WaitPeers(wctx, peers); err != nil {
		return fmt.Errorf("train: rank %d waiting for mesh %v: %w", w.rank, peers, err)
	}
	return nil
}

// buildSession receives the state broadcast and constructs the executor for
// the manifest's plan — the one build of the first handshake and of every
// reconfig, for veterans and joiners alike.
func (w *Worker) buildSession(ctx context.Context, man *Manifest) error {
	if err := w.waitMesh(ctx, man); err != nil {
		return err
	}
	net, err := BuildNet(man.Net)
	if err != nil {
		return err
	}
	ck, err := w.receiveState(ctx, man, net.Params())
	if err != nil {
		return err
	}
	for i, p := range net.Params() {
		copy(p.W.Data, ck.Weights[i].Data)
		w.t.RecycleTensor(ck.Weights[i])
	}
	exec, err := w.buildExecutor(man, net)
	if err == nil && len(ck.Slots) > 0 {
		err = restoreExecState(exec, man, net, ck.OptStep, ck.Slots)
	}
	if err != nil {
		return err
	}
	w.exec, w.net, w.epoch = exec, net, man.Epoch
	return sendEnvelope(w.t, w.coord, envelope{Kind: ctrlReady})
}

// receiveState assembles the checkpoint the coordinator broadcasts for the
// manifest's generation onto the skeleton params, and checks it against the
// weights-done that closes it: the assembled state must be complete and
// re-encode to the CRC the coordinator sent.
func (w *Worker) receiveState(ctx context.Context, man *Manifest, params []nn.Param) (*Checkpoint, error) {
	a := newAssembly(params, man.Opt.Slots())
	for {
		env, tm, err := w.recv(ctx, man.Epoch)
		switch {
		case err != nil:
			return nil, err
		case tm.Tensor != nil:
			if err := a.put(tm.Class, tm.Index, tm.Tensor); err != nil {
				return nil, err
			}
			continue
		case env.Kind != ctrlWeightsDone:
			return nil, fmt.Errorf("train: worker expected weights-done, got %q", env.Kind)
		case a.left > 0:
			return nil, fmt.Errorf("train: weights-done arrived with %d state tensors missing", a.left)
		}
		a.ck.Step, a.ck.OptStep = env.Step, env.OptStep
		if sum := a.ck.checksum(); sum != env.CRC {
			return nil, fmt.Errorf("train: rank %d assembled state with CRC %08x, coordinator sent %08x", w.rank, sum, env.CRC)
		}
		return a.ck, nil
	}
}

// buildExecutor constructs this rank's executor for the manifest's plan.
func (w *Worker) buildExecutor(man *Manifest, net *nn.Network) (*Executor, error) {
	mdl := man.Model
	p := &core.Plan{Model: &mdl, Cluster: man.Cluster, GBS: man.GBS, MicroBatch: man.MicroBatch}
	for _, ss := range man.Stages {
		s := core.Stage{Lo: ss.Lo, Hi: ss.Hi}
		for _, d := range ss.Devices {
			s.Devices = append(s.Devices, hardware.DeviceID(d))
		}
		p.Stages = append(p.Stages, s)
	}
	factory, err := man.Opt.Factory()
	if err != nil {
		return nil, err
	}
	return NewExecutor(p, net, factory, ExecOptions{
		Policy: schedule.Policy(man.Policy), Recompute: man.Recompute, NoTrace: true,
		Dist: &DistConfig{Transport: w.t, Rank: w.rank, DeviceRanks: man.DeviceRanks},
	})
}

// restoreExecState distributes a full-network optimizer state into the
// executor's hosted replicas, slicing the global per-parameter vectors down
// to each stage's parameter range.
func restoreExecState(exec *Executor, man *Manifest, net *nn.Network, optStep int, slots [][][]float64) error {
	offs := layerParamOffsets(net)
	for si, ss := range man.Stages {
		plo, phi := offs[ss.Lo], offs[ss.Hi]
		if plo == phi {
			continue
		}
		sub := make([][][]float64, len(slots))
		for s := range slots {
			sub[s] = slots[s][plo:phi]
		}
		for r := range ss.Devices {
			if !exec.HostsReplica(si, r) {
				continue
			}
			st, ok := exec.StageOptimizer(si, r).(nn.Stateful)
			if !ok {
				continue
			}
			if err := st.RestoreState(exec.StageParams(si, r), nn.OptState{Step: optStep, Slots: sub}); err != nil {
				return fmt.Errorf("train: stage %d replica %d optimizer restore: %w", si, r, err)
			}
		}
	}
	return nil
}

// layerParamOffsets returns, per layer boundary, the number of parameters in
// all earlier layers — mapping a stage's layer range to its global parameter
// range.
func layerParamOffsets(net *nn.Network) []int {
	offs := make([]int, len(net.Layers)+1)
	for i, l := range net.Layers {
		offs[i+1] = offs[i] + len(l.Params())
	}
	return offs
}

// sendSnapshot ships this rank's share of a consistent snapshot: for every
// stage whose primary (lowest-hosting) rank this is, the stage's weights and
// optimizer state from its first hosted replica, then the ack. Called only
// between steps, so the state is a clean step boundary by construction.
// Weights and slot vectors go out live, uncopied: the coordinator announces
// the next step only after this rank's ack, which the writer pump sends
// after every byte of the share.
func (w *Worker) sendSnapshot() error {
	coord := w.coord
	offs := layerParamOffsets(w.net)
	nparams := offs[len(offs)-1]
	optStep := 0
	for si, ss := range w.man.Stages {
		primary := w.rank + 1
		for _, d := range ss.Devices {
			if r := w.man.DeviceRanks[d]; primary > r {
				primary = r
			}
		}
		if primary != w.rank {
			continue
		}
		replica := -1
		for r := range ss.Devices {
			if w.exec.HostsReplica(si, r) {
				replica = r
				break
			}
		}
		if replica < 0 {
			return fmt.Errorf("train: snapshot: stage %d has no hosted replica on primary rank %d", si, w.rank)
		}
		params := w.exec.StageParams(si, replica)
		weights := make([]*tensor.Matrix, len(params))
		for j, p := range params {
			weights[j] = p.W
		}
		var slots [][][]float64
		if st, ok := w.exec.StageOptimizer(si, replica).(nn.Stateful); ok {
			state := st.CaptureState(params)
			optStep = max(optStep, state.Step)
			slots = state.Slots
		}
		if err := sendState(toPeer(w.t, coord), offs[ss.Lo], nparams, weights, slots); err != nil {
			return err
		}
	}
	return sendEnvelope(w.t, coord, envelope{Kind: ctrlSnapAck, OptStep: optStep})
}

// reconfig rebuilds the session onto a recovery or expansion manifest:
// retire the torn transport generation, then rebuild the executor from the
// state broadcast — the same one whether this rank held state before or
// joined mid-session. The build reads only frames stamped with the
// manifest's epoch; older ones are the torn generation's leftovers.
func (w *Worker) reconfig(ctx context.Context, env envelope) error {
	if env.Manifest == nil {
		return fmt.Errorf("train: reconfig without manifest")
	}
	man := env.Manifest
	w.man = man
	w.t.Retire(man.Epoch)
	err := w.buildSession(ctx, man)
	if errors.Is(err, transport.ErrPeerDown) {
		// A manifest peer (a joiner, typically) died while this rank was
		// rebuilding around it: report the evidence and stay alive — the
		// coordinator's next round re-plans without the corpse, and this
		// round's remaining frames carry an epoch this rank never built.
		return w.stepFailed(err)
	}
	return err
}

// runStep receives one step's micro-batches and executes the local share of
// the plan, watching the session inbox throughout so a peer's abort or a
// recovery reconfig cancels a step blocked on cross-process transfers. An
// envelope arriving in place of a micro-batch tensor means the coordinator
// tore the step before sending it. An executor failure is reported with
// death evidence and survived (the worker waits for the coordinator's
// verdict); the returned envelope, when non-nil, is a reconfig that
// interrupted the step and must be processed next.
func (w *Worker) runStep(ctx context.Context, env envelope) (*envelope, error) {
	micros := w.microBuf[:0]
	for mb := 0; mb < env.M; mb++ {
		var xy [2]*tensor.Matrix
		for i, class := range [2]int{tensX, tensY} {
			e, tm, err := w.recv(ctx, w.epoch)
			var next *envelope
			if err == nil && (tm.Tensor == nil || tm.Class != class || tm.Index != mb) {
				next, err = w.interrupted(e, tm)
			}
			if next != nil || err != nil {
				w.t.RecycleTensor(xy[0])
				w.recycleMicros(micros)
				return next, err
			}
			xy[i] = tm.Tensor
		}
		y := xy[1]
		labels := w.leaseLabels(mb, y.Rows)
		for i := range labels {
			labels[i] = int(y.Data[i])
		}
		w.t.RecycleTensor(y)
		micros = append(micros, Batch{X: xy[0], Y: labels})
	}
	w.microBuf = micros[:0]
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type outcome struct {
		res *ExecResult
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := w.exec.StepContext(sctx, micros)
		done <- outcome{res, err}
	}()
	var aborted error
	var next *envelope
	for next == nil && aborted == nil {
		select {
		case out := <-done:
			// The executor has returned; its input leases can go back to the
			// reader pumps.
			w.recycleMicros(micros)
			if out.err != nil {
				return nil, w.stepFailed(out.err)
			}
			return nil, sendEnvelope(w.t, w.coord, envelope{Kind: ctrlStepDone, Step: env.Step, Loss: out.res.Loss})
		case sm := <-w.t.Session():
			// The coordinator interrupted the step: a relayed abort, a
			// recovery reconfig, or something unexpected (equally fatal).
			// Cancel the local step so its workers unblock from
			// cross-process receives. A torn round's leftover is dropped.
			e, ok, err := w.accept(sm, w.epoch)
			switch {
			case err != nil:
				aborted = err
			case ok:
				next, aborted = w.interrupted(e, sm)
			}
		case <-w.t.Done():
			aborted = w.t.Err()
		case <-ctx.Done():
			aborted = ctx.Err()
		}
	}
	cancel()
	<-done // the executor must be fully quiescent before moving on
	w.recycleMicros(micros)
	return next, aborted
}

// leaseLabels returns micro mb's reusable label staging, grown to rows.
func (w *Worker) leaseLabels(mb, rows int) []int {
	for mb >= len(w.labelBuf) {
		w.labelBuf = append(w.labelBuf, nil)
	}
	if cap(w.labelBuf[mb]) < rows {
		w.labelBuf[mb] = make([]int, rows)
	}
	w.labelBuf[mb] = w.labelBuf[mb][:rows]
	return w.labelBuf[mb]
}

// recycleMicros returns a torn or consumed step's input leases to the
// transport's reader pumps.
func (w *Worker) recycleMicros(micros []Batch) {
	for _, b := range micros {
		w.t.RecycleTensor(b.X)
	}
}

// stepFailed reports an executor or rebuild failure with the ranks this
// worker saw die, and keeps the worker alive for the coordinator's verdict:
// a reconfig when the session re-plans, an abort when it ends.
func (w *Worker) stepFailed(cause error) error {
	downs, _ := w.t.PeerDowns()
	evidence := make([]int, 0, len(downs))
	for _, r := range downs {
		if r != w.coord {
			evidence = append(evidence, r)
		}
	}
	// A nil return awaits the coordinator's reconfig or abort.
	return sendEnvelope(w.t, w.coord, envelope{Kind: ctrlAbort, Err: cause.Error(), Down: evidence})
}
