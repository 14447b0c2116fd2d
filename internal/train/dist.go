package train

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
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
// Control messages are JSON envelopes on the transport's control plane; bulk
// data (initial weights, optimizer state, per-step micro-batches, snapshot
// gathers) travels as out-of-band tensor frames on the same connections, so
// per-peer FIFO order makes every wait deterministic. The handshake is
// manifest → weight and optimizer-state broadcast → weights-done → ready;
// each step is step → micro-batch tensors → step-done, and the coordinator
// gates step k+1 on every worker's step-k report.
//
// Failure semantics are configurable. By default the session is fail-stop:
// any failure anywhere ends it everywhere, and no torn cross-process update
// can exist because updates commit only at step boundaries. With WithReplan
// the session instead survives worker death: heartbeats (WithHeartbeat)
// detect dead or hung ranks, the coordinator retires the torn generation
// (transport epoch floor), re-plans onto the survivors, restores the last
// consistent snapshot and re-runs the handshake — the failed Step returns
// *Recovered telling the driver where to rewind its data feed.
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
const (
	tensWeight = 1 // weight broadcast, Index = position in Params()
	tensX      = 2 // one micro-batch's input rows, Index = micro-batch id
	tensY      = 3 // one micro-batch's labels as a rows×1 matrix
	tensOptS   = 4 // optimizer-state broadcast, Index = slot*nparams + param
	tensSnapW  = 5 // snapshot gather: weights toward the coordinator
	tensSnapS  = 6 // snapshot gather: optimizer state toward the coordinator
	tensFlush  = 7 // recovery flush marker: everything before it is stale
	tensCkpt   = 8 // checkpoint stream to a joiner, Index = chunk number
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
// keeps — the number of tensOptS/tensSnapS streams per parameter.
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
	// generation (shrinks after a recovery). Empty means 0..Workers-1.
	Ranks []int `json:"ranks,omitempty"`
	// Survivable marks a fault-tolerant session: every rank enables peer
	// isolation so one rank's death downs a peer, not the mesh.
	Survivable bool `json:"survivable,omitempty"`
	// Heartbeat and HeartbeatTimeout configure each rank's liveness plane
	// (nanoseconds; zero disables).
	Heartbeat        time.Duration `json:"heartbeat,omitempty"`
	HeartbeatTimeout time.Duration `json:"heartbeatTimeout,omitempty"`
	// Epoch is the transport epoch floor of this session generation
	// (nonzero only in recovery manifests); workers Retire to it before
	// rebuilding their executors.
	Epoch uint32 `json:"epoch,omitempty"`
}

// ranks returns the participating worker ranks.
func (m *Manifest) ranks() []int {
	if len(m.Ranks) > 0 {
		return m.Ranks
	}
	rs := make([]int, m.Workers)
	for i := range rs {
		rs[i] = i
	}
	return rs
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
	// down. The coordinator treats abort-with-Down as a recovery trigger
	// rather than a fail-stop.
	Down []int `json:"downRanks,omitempty"`
	// OptStep rides on weights-done and snap-ack: the optimizer's update
	// counter belonging to the broadcast or gathered state.
	OptStep int `json:"optStep,omitempty"`
	// CkptBytes rides on a reconfig toward a freshly joined rank: the exact
	// byte length of the checkpoint stream (tensCkpt frames) that follows
	// instead of the per-parameter state broadcast. Zero selects the
	// broadcast format.
	CkptBytes int64 `json:"ckptBytes,omitempty"`
}

// NetSpec extracts the structural skeleton of a network for the manifest.
func NetSpec(n *nn.Network) ([]LayerSpec, error) {
	spec := make([]LayerSpec, 0, n.NumLayers())
	for _, l := range n.Layers {
		switch d := l.(type) {
		case *nn.Dense:
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

// BuildNet constructs the skeleton a spec describes. Dense weights are
// placeholders until the coordinator's broadcast overwrites them.
func BuildNet(spec []LayerSpec) (*nn.Network, error) {
	rng := rand.New(rand.NewSource(0))
	net := &nn.Network{}
	for _, ls := range spec {
		switch ls.Kind {
		case "dense":
			if ls.In <= 0 || ls.Out <= 0 {
				return nil, fmt.Errorf("train: dense layer with shape %dx%d", ls.In, ls.Out)
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

// recvEnvelope blocks for the next control message, decoding it; it fails
// when the transport dies, ctx ends, or any of the watched ranks goes down,
// so protocol waits are never stranded by a dead peer.
func recvEnvelope(ctx context.Context, t *transport.TCP, watch ...int) (int, envelope, error) {
	for {
		downs, dwait := t.PeerDowns()
		for _, d := range downs {
			for _, w := range watch {
				if d == w {
					return -1, envelope{}, fmt.Errorf("train: rank %d down: %w", d, t.DownErr(d))
				}
			}
		}
		select {
		case cm := <-t.Ctrl():
			var env envelope
			err := json.Unmarshal(cm.Data, &env)
			t.RecycleCtrl(cm.Data)
			if err != nil {
				return cm.Peer, envelope{}, fmt.Errorf("train: bad control frame from rank %d: %w", cm.Peer, err)
			}
			return cm.Peer, env, nil
		case <-dwait:
		case <-t.Done():
			// Drain messages demuxed before the transport died: a shutdown
			// that raced a peer's teardown must still be seen as a shutdown.
			select {
			case cm := <-t.Ctrl():
				var env envelope
				err := json.Unmarshal(cm.Data, &env)
				t.RecycleCtrl(cm.Data)
				if err == nil {
					return cm.Peer, env, nil
				}
			default:
			}
			return -1, envelope{}, t.Err()
		case <-ctx.Done():
			return -1, envelope{}, ctx.Err()
		}
	}
}

// recvTensor blocks for the next out-of-band tensor frame.
func recvTensor(ctx context.Context, t *transport.TCP) (transport.TensorMsg, error) {
	select {
	case tm := <-t.Tensors():
		return tm, nil
	case <-t.Done():
		return transport.TensorMsg{}, t.Err()
	case <-ctx.Done():
		return transport.TensorMsg{}, ctx.Err()
	}
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

// WithHeartbeat enables the liveness plane on every rank: heartbeats every
// interval, and a rank heard from more than timeout ago is declared dead.
// The timeout must comfortably exceed the interval (10x is a sane start) so
// slow-but-alive ranks are never falsely declared dead.
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
// steps, and restores the latest valid checkpoint at session start and
// during recovery. Snapshots are gathered from the workers at step
// boundaries, so they are always torn-update-free.
func WithCheckpoint(dir string, every int) SessionOption {
	return func(c *sessionConfig) { c.ckptDir, c.ckptEvery = dir, every }
}

// WithReplan makes the session survive worker death: on a detected failure
// the coordinator re-plans onto the surviving ranks with fn, restores the
// last snapshot, and resumes. Without this option the session is fail-stop.
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
	hb          *heartbeater
	failed      error

	// Elastic membership (all nil/zero unless WithElastic). Mutated only from
	// the coordinator's protocol loops, so no locking.
	nextRank  int            // next rank to grant; joiners never reuse dead ranks
	joining   map[int]bool   // granted a rank, still meshing
	joinReady []int          // meshed and admission-pending
	fresh     map[int]bool   // ranks that have never built a session: next reconfig streams them a checkpoint
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
	if cfg.replan != nil {
		t.SetPeerIsolation(true)
	}
	man, err := c.manifest()
	if err != nil {
		return nil, err
	}
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
		c.fresh = map[int]bool{}
		c.addrs = cfg.addrs
		c.manHash = sessionHash(man)
		t.SetAcceptJoins(true)
	}
	for _, w := range c.alive {
		if err := sendEnvelope(t, w, envelope{Kind: ctrlManifest, Manifest: man}); err != nil {
			return nil, err
		}
		if err := c.sendState(w); err != nil {
			return nil, err
		}
	}
	if err := c.readyBarrier(ctx); err != nil {
		return nil, err
	}
	if cfg.hbInterval > 0 {
		c.hb = startHeartbeater(t, cfg.hbInterval, cfg.hbTimeout, nil)
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
		Workers:    c.coord,
		Ranks:      append([]int(nil), c.alive...),
		Survivable: c.cfg.replan != nil,
		Heartbeat:  c.cfg.hbInterval, HeartbeatTimeout: c.cfg.hbTimeout,
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

// sendState ships the session's authoritative training state — checkpoint
// weights and optimizer state in Params() order — to worker w, closed by
// weights-done carrying the optimizer step counter.
func (c *Coordinator) sendState(w int) error {
	for i, wt := range c.ckpt.Weights {
		if err := c.t.SendTensor(w, tensWeight, i, wt); err != nil {
			return err
		}
	}
	nparams := len(c.ckpt.Weights)
	for s, slot := range c.ckpt.Slots {
		for i, vec := range slot {
			m := &tensor.Matrix{Rows: c.ckpt.Weights[i].Rows, Cols: c.ckpt.Weights[i].Cols, Data: vec}
			if err := c.t.SendTensor(w, tensOptS, s*nparams+i, m); err != nil {
				return err
			}
		}
	}
	return sendEnvelope(c.t, w, envelope{Kind: ctrlWeightsDone, OptStep: c.ckpt.OptStep})
}

// readyBarrier waits for every live worker's ready, skipping stale step
// reports from before a recovery (per-connection FIFO guarantees a worker's
// ready follows everything it sent earlier). A worker dying during the
// barrier fails it — the caller decides between fail-stop and another
// recovery round.
func (c *Coordinator) readyBarrier(ctx context.Context) error {
	pending := make(map[int]bool, len(c.alive))
	for _, w := range c.alive {
		pending[w] = true
	}
	for len(pending) > 0 {
		peer, env, err := recvEnvelope(ctx, c.t, c.alive...)
		if err != nil {
			return err
		}
		switch env.Kind {
		case ctrlReady:
			if env.Step != int(c.floor()) {
				continue // a ready from a torn rehandshake round; drop
			}
			delete(pending, peer)
			delete(c.fresh, peer) // a built session means broadcasts fit from now on
		case ctrlStepDone, ctrlSnapAck:
			// Stale reports from the torn generation; drop.
		case ctrlJoin:
			c.noteJoinReady(peer)
		case ctrlAbort:
			if err := c.noteAbort(peer, env); err != nil {
				return err
			}
		default:
			return fmt.Errorf("train: rank %d sent %q during handshake: %s", peer, env.Kind, env.Err)
		}
	}
	return nil
}

// noteAbort processes a worker's abort envelope. Fresh death evidence downs
// the named ranks and fails the current wait so recovery sees them; evidence
// naming only ranks the session has already removed is a stale report from
// before the recovery and is dropped (nil). An abort without evidence is a
// worker-level failure and fail-stops the session.
func (c *Coordinator) noteAbort(peer int, env envelope) error {
	if c.cfg.replan != nil && len(env.Down) > 0 {
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
	return fmt.Errorf("train: rank %d aborted: %s", peer, env.Err)
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
// On failure, a fail-stop session (no WithReplan) is dead and every later
// Step fails immediately. A survivable session instead recovers — re-plans
// onto the live ranks, restores the last snapshot — and returns *Recovered;
// the caller rewinds to Recovered.Resume and keeps stepping.
func (c *Coordinator) Step(ctx context.Context, micros []Batch) (float64, error) {
	if c.failed != nil {
		return 0, c.failed
	}
	if c.cfg.elastic {
		c.drainJoins()
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
	step := c.step
	for _, w := range c.alive {
		if err := c.send(w, step, micros); err != nil {
			return 0, err
		}
	}
	pending := make(map[int]bool, len(c.alive))
	for _, w := range c.alive {
		pending[w] = true
	}
	var expire <-chan time.Time
	if c.cfg.stepTimeout > 0 {
		tmr := time.NewTimer(c.cfg.stepTimeout)
		defer tmr.Stop()
		expire = tmr.C
	}
	var loss float64
	for len(pending) > 0 {
		downs, dwait := c.t.PeerDowns()
		for _, r := range downs {
			if pending[r] {
				return 0, fmt.Errorf("train: rank %d down during step %d: %w", r, step, c.t.DownErr(r))
			}
		}
		select {
		case cm := <-c.t.Ctrl():
			var env envelope
			err := json.Unmarshal(cm.Data, &env)
			c.t.RecycleCtrl(cm.Data)
			if err != nil {
				return 0, fmt.Errorf("train: bad control frame from rank %d: %w", cm.Peer, err)
			}
			switch env.Kind {
			case ctrlStepDone:
				if env.Step != step {
					continue // stale report from a torn generation
				}
				if pending[cm.Peer] {
					delete(pending, cm.Peer)
					loss += env.Loss
				}
			case ctrlAbort:
				if err := c.noteAbort(cm.Peer, env); err != nil {
					return 0, err
				}
			case ctrlSnapAck, ctrlReady:
				// Stale gather ack or torn-round ready; drop.
			case ctrlJoin:
				c.noteJoinReady(cm.Peer) // admission waits for the step boundary
			default:
				return 0, fmt.Errorf("train: rank %d sent %q during step %d", cm.Peer, env.Kind, step)
			}
		case j := <-c.t.Joins():
			c.serviceJoin(j)
		case <-dwait:
		case <-expire:
			err := fmt.Errorf("train: step %d timed out after %v", step, c.cfg.stepTimeout)
			for r := range pending {
				c.t.ClosePeer(r, err)
			}
			return 0, err
		case <-c.t.Done():
			return 0, c.t.Err()
		case <-ctx.Done():
			return 0, ctx.Err()
		}
	}
	return loss, nil
}

// send ships one step announcement and its micro-batches to worker w. Labels
// travel as a rows×1 float64 matrix beside each input block.
func (c *Coordinator) send(w, step int, micros []Batch) error {
	if err := sendEnvelope(c.t, w, envelope{Kind: ctrlStep, Step: step, M: len(micros)}); err != nil {
		return err
	}
	for mb, b := range micros {
		if err := c.t.SendTensor(w, tensX, mb, b.X); err != nil {
			return err
		}
		y := transport.LeaseBuf(c.yfree, len(b.Y), 1)
		for i, v := range b.Y {
			y.Data[i] = float64(v)
		}
		if err := c.t.SendTensorPooled(w, tensY, mb, y, c.yfree); err != nil {
			return err
		}
	}
	return nil
}

// snapshot gathers a consistent checkpoint from the workers at the current
// step boundary and persists it when a checkpoint directory is configured.
// Each stage's state is sent by its primary rank (the lowest rank hosting
// one of its devices); gradient synchronization keeps all replicas of a
// stage identical, so one copy per stage reassembles the full master state.
func (c *Coordinator) snapshot(ctx context.Context) error {
	for _, w := range c.alive {
		if err := sendEnvelope(c.t, w, envelope{Kind: ctrlSnapshot, Step: c.step}); err != nil {
			return err
		}
	}
	params := c.master.Params()
	nparams := len(params)
	nslots := c.opt.Slots()
	ck := &Checkpoint{Step: c.step, Weights: make([]*tensor.Matrix, nparams)}
	ck.Slots = make([][][]float64, nslots)
	for s := range ck.Slots {
		ck.Slots[s] = make([][]float64, nparams)
	}
	need := nparams * (1 + nslots)
	got := 0
	acks := make(map[int]bool, len(c.alive))
	for _, w := range c.alive {
		acks[w] = true
	}
	for got < need || len(acks) > 0 {
		downs, dwait := c.t.PeerDowns()
		for _, r := range downs {
			if acks[r] {
				return fmt.Errorf("train: rank %d down during snapshot at step %d: %w", r, c.step, c.t.DownErr(r))
			}
		}
		select {
		case tm := <-c.t.Tensors():
			switch tm.Class {
			case tensSnapW:
				if tm.Index < 0 || tm.Index >= nparams || ck.Weights[tm.Index] != nil {
					return fmt.Errorf("train: snapshot weight %d unexpected", tm.Index)
				}
				ck.Weights[tm.Index] = tm.Data
				got++
			case tensSnapS:
				s, i := tm.Index/nparams, tm.Index%nparams
				if tm.Index < 0 || s >= nslots || ck.Slots[s][i] != nil {
					return fmt.Errorf("train: snapshot state %d unexpected", tm.Index)
				}
				ck.Slots[s][i] = tm.Data.Data
				got++
			case tensFlush:
				// A marker from an in-flight recovery; drop.
				c.t.RecycleTensor(tm.Data)
			default:
				return fmt.Errorf("train: tensor class %d during snapshot", tm.Class)
			}
		case cm := <-c.t.Ctrl():
			var env envelope
			err := json.Unmarshal(cm.Data, &env)
			c.t.RecycleCtrl(cm.Data)
			if err != nil {
				return fmt.Errorf("train: bad control frame from rank %d: %w", cm.Peer, err)
			}
			switch env.Kind {
			case ctrlSnapAck:
				if env.Step == c.step && acks[cm.Peer] {
					delete(acks, cm.Peer)
					if env.OptStep > ck.OptStep {
						ck.OptStep = env.OptStep
					}
				}
			case ctrlStepDone, ctrlReady:
				// Stale report or torn-round ready; drop.
			case ctrlJoin:
				c.noteJoinReady(cm.Peer)
			case ctrlAbort:
				if err := c.noteAbort(cm.Peer, env); err != nil {
					return err
				}
			default:
				return fmt.Errorf("train: rank %d sent %q during snapshot", cm.Peer, env.Kind)
			}
		case j := <-c.t.Joins():
			c.serviceJoin(j)
		case <-dwait:
		case <-c.t.Done():
			return c.t.Err()
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	for i, w := range ck.Weights {
		if w == nil || w.Rows != params[i].W.Rows || w.Cols != params[i].W.Cols {
			return fmt.Errorf("train: snapshot weight %d missing or misshapen", i)
		}
	}
	c.ckpt = ck
	if c.cfg.ckptDir != "" {
		if _, err := SaveCheckpoint(c.cfg.ckptDir, ck); err != nil {
			return fmt.Errorf("train: checkpoint write: %w", err)
		}
		if c.cfg.ckptKeep > 0 {
			if _, err := PruneCheckpoints(c.cfg.ckptDir, c.cfg.ckptKeep); err != nil {
				return fmt.Errorf("train: checkpoint prune: %w", err)
			}
		}
	}
	return nil
}

// recover heals the session after a failure: determine the dead set, retire
// the torn transport generation, re-plan onto the survivors, restore the
// last consistent snapshot and re-run the handshake. Another rank dying
// mid-recovery starts the next round; recovery fails when no progress is
// possible (no rank died, no survivors, or the re-plan itself fails).
func (c *Coordinator) recover(ctx context.Context, cause error) ([]int, error) {
	// Ranks legitimately go quiet while they rebuild (retiring generations,
	// restoring checkpoints): pause silence verdicts so recovery itself never
	// manufactures new deaths. Conn-level failures still down ranks.
	c.hb.Suspend()
	defer c.hb.Resume()
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
		plan, deviceRanks, err := c.cfg.replan(alive)
		if err != nil {
			return nil, fmt.Errorf("train: re-plan onto %v: %w", alive, err)
		}
		if err := validatePlacement(plan, deviceRanks, alive); err != nil {
			return nil, err
		}
		// Restore the last consistent snapshot: from disk when a checkpoint
		// directory is configured (exercising the real restore path), from
		// the in-memory copy otherwise.
		ck := c.ckpt
		if c.cfg.ckptDir != "" {
			saved, _, err := LatestCheckpoint(c.cfg.ckptDir)
			if err == nil && saved != nil {
				ck = saved
			}
		}
		c.gen++
		c.t.Retire(c.floor())
		c.plan, c.deviceRanks, c.alive, c.ckpt = plan, deviceRanks, alive, ck
		c.step = ck.Step
		if err := c.rehandshake(ctx); err != nil {
			if ctx.Err() != nil || c.t.Err() != nil {
				return nil, err
			}
			cause = err
			continue // another rank died; next round shrinks further
		}
		return lost, nil
	}
	return nil, fmt.Errorf("train: recovery did not converge: %w", cause)
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

// rehandshake re-runs the session handshake on the current membership:
// reconfig (carrying the new manifest), a flush marker fencing off the torn
// generation's in-flight tensors, then the training state — the restored
// broadcast for ranks that have built a session before, a CRC-tailed
// checkpoint stream for fresh joiners — then the ready barrier.
func (c *Coordinator) rehandshake(ctx context.Context) error {
	man, err := c.manifest()
	if err != nil {
		return err
	}
	marker := tensor.New(1, 1)
	var stream []byte // checkpoint wire image for fresh ranks, encoded once
	for _, w := range c.alive {
		env := envelope{Kind: ctrlReconfig, Manifest: man}
		if c.fresh[w] {
			if stream == nil {
				stream = EncodeCheckpoint(c.ckpt)
			}
			env.CkptBytes = int64(len(stream))
		}
		if err := sendEnvelope(c.t, w, env); err != nil {
			return err
		}
		if err := c.t.SendTensor(w, tensFlush, int(man.Epoch), marker); err != nil {
			return err
		}
		if c.fresh[w] {
			err = c.sendCkptStream(w, stream)
		} else {
			err = c.sendState(w)
		}
		if err != nil {
			return err
		}
	}
	return c.readyBarrier(ctx)
}

// fail latches the session's first error, tells every worker to abort, and
// tears the mesh down.
func (c *Coordinator) fail(err error) error {
	if c.failed == nil {
		c.failed = err
		if c.hb != nil {
			c.hb.Stop()
		}
		for _, w := range c.alive {
			sendEnvelope(c.t, w, envelope{Kind: ctrlAbort, Err: err.Error()}) //nolint:errcheck // best-effort on a dying session
		}
		c.t.Close()
	}
	return c.failed
}

// Close ends a healthy session: shutdown to every worker, a barrier on
// their acks (so no worker is still mid-read when the connections drop)
// bounded by the shutdown timeout, then the mesh.
func (c *Coordinator) Close() error {
	if c.hb != nil {
		c.hb.Stop()
	}
	if c.failed != nil {
		return nil
	}
	for _, w := range c.alive {
		if err := sendEnvelope(c.t, w, envelope{Kind: ctrlShutdown}); err != nil {
			return c.t.Close()
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.shutdownTimeout)
	defer cancel()
	pending := make(map[int]bool, len(c.alive))
	for _, w := range c.alive {
		pending[w] = true
	}
	for len(pending) > 0 {
		peer, env, err := recvEnvelope(ctx, c.t)
		if err != nil {
			break // timeout, dead transport or downed rank: close anyway
		}
		if env.Kind == ctrlShutdownAck {
			delete(pending, peer)
		}
	}
	return c.t.Close()
}

// Worker is one rank of a multi-process session: it receives the manifest
// and state, hosts its share of stage replicas in an Executor, and runs
// coordinator-gated steps until shutdown. In a survivable session it also
// participates in recovery: executor failures with death evidence are
// reported and survived, and a coordinator reconfig rebuilds the executor
// onto the new plan.
type Worker struct {
	t    *transport.TCP
	rank int

	exec      *Executor
	man       *Manifest
	net       *nn.Network
	optStep   int                 // optimizer update counter of the last broadcast
	data      transport.Transport // data-plane override (chaos tests); nil uses t
	dieAtStep int                 // scripted death for fault tests; -1 disables
	flushSeen int                 // highest recovery flush marker consumed
	hb        *heartbeater
	grant     *joinGrantMsg // non-nil on a worker admitted mid-session (JoinSession)

	microBuf []Batch // reused per-step micro-batch staging
	labelBuf [][]int // reused per-micro label staging
}

// NewWorker wraps an already-connected mesh (rank set, peers dialed) as a
// session worker.
func NewWorker(t *transport.TCP, rank int) *Worker {
	return &Worker{t: t, rank: rank, dieAtStep: -1, flushSeen: -1}
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

// SetDataTransport overrides the transport the worker's executor opens
// edges and groups on (the control plane stays on the session mesh). Chaos
// tests wrap the mesh here; nil (the default) uses the mesh directly.
func (w *Worker) SetDataTransport(tr transport.Transport) { w.data = tr }

// dataTransport is the executor-facing transport.
func (w *Worker) dataTransport() transport.Transport {
	if w.data != nil {
		return w.data
	}
	return w.t
}

// coordRank is the coordinator's mesh rank (valid after the manifest).
func (w *Worker) coordRank() int { return w.man.Workers }

// Serve runs the worker side of the session protocol until shutdown (nil),
// session failure, or ctx cancellation. It must be called once, after the
// mesh is fully connected.
func (w *Worker) Serve(ctx context.Context) error {
	var err error
	if w.grant != nil {
		err = w.handshakeJoin(ctx)
	} else {
		err = w.handshake(ctx)
	}
	if err != nil {
		return err
	}
	if w.hb != nil {
		// A joiner ran a send-only heartbeater while awaiting admission;
		// replace it with the session-configured liveness plane.
		w.hb.Stop()
		w.hb = nil
	}
	if w.man.Heartbeat > 0 {
		w.hb = startHeartbeater(w.t, w.man.Heartbeat, w.man.HeartbeatTimeout, nil)
		defer w.hb.Stop()
	}
	coord := w.coordRank()
	for {
		peer, env, err := recvEnvelope(ctx, w.t, coord)
		if err != nil {
			return err
		}
		if peer != coord {
			return fmt.Errorf("train: control frame from non-coordinator rank %d", peer)
		}
		switch env.Kind {
		case ctrlStep:
			if w.dieAtStep >= 0 && env.Step >= w.dieAtStep {
				w.t.Close()
				return nil
			}
			next, err := w.runStep(ctx, env)
			if err != nil {
				return err
			}
			if next != nil {
				if err := w.reconfig(ctx, *next); err != nil {
					return err
				}
			}
		case ctrlSnapshot:
			if err := w.sendSnapshot(env); err != nil {
				return err
			}
		case ctrlReconfig:
			if err := w.reconfig(ctx, env); err != nil {
				return err
			}
		case ctrlShutdown:
			// Ack, then hold the mesh open until the coordinator — who has
			// every worker's ack — tears it down: a worker closing early
			// would EOF peers that are still draining their own shutdown.
			sendEnvelope(w.t, coord, envelope{Kind: ctrlShutdownAck}) //nolint:errcheck // session is over either way
			w.awaitTeardown(ctx)
			return nil
		case ctrlAbort:
			return fmt.Errorf("train: session aborted by coordinator: %s", env.Err)
		default:
			return fmt.Errorf("train: unexpected %q from coordinator", env.Kind)
		}
	}
}

// awaitTeardown blocks (bounded) until the coordinator tears the session
// down after a clean shutdown: under peer isolation its connection dropping
// marks it down; under fail-stop semantics the whole transport dies.
func (w *Worker) awaitTeardown(ctx context.Context) {
	coord := w.coordRank()
	deadline := time.NewTimer(30 * time.Second)
	defer deadline.Stop()
	for {
		downs, dwait := w.t.PeerDowns()
		for _, r := range downs {
			if r == coord {
				return
			}
		}
		select {
		case <-dwait:
		case <-w.t.Done():
			return
		case <-ctx.Done():
			return
		case <-deadline.C:
			return
		}
	}
}

// handshake consumes the manifest, rebuilds the plan and network, fills the
// weights and optimizer state from the broadcast, constructs the executor
// and reports ready.
func (w *Worker) handshake(ctx context.Context) error {
	_, env, err := recvEnvelope(ctx, w.t)
	if err != nil {
		return err
	}
	if env.Kind != ctrlManifest || env.Manifest == nil {
		return fmt.Errorf("train: worker expected manifest, got %q", env.Kind)
	}
	man := env.Manifest
	w.man = man
	if man.Survivable {
		w.t.SetPeerIsolation(true)
	}
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
	for _, r := range man.ranks() {
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
// the manifest's plan — the shared tail of the initial handshake and every
// recovery reconfig.
func (w *Worker) buildSession(ctx context.Context, man *Manifest) error {
	coord := man.Workers
	if err := w.waitMesh(ctx, man); err != nil {
		return err
	}
	net, err := BuildNet(man.Net)
	if err != nil {
		return err
	}
	params := net.Params()
	nparams := len(params)
	for i := range params {
		tm, err := recvTensor(ctx, w.t)
		if err != nil {
			return err
		}
		if tm.Class != tensWeight || tm.Index != i {
			return fmt.Errorf("train: weight broadcast out of order (class %d index %d, want %d)", tm.Class, tm.Index, i)
		}
		if tm.Data.Rows != params[i].W.Rows || tm.Data.Cols != params[i].W.Cols {
			return fmt.Errorf("train: weight %d is %dx%d, skeleton wants %dx%d",
				i, tm.Data.Rows, tm.Data.Cols, params[i].W.Rows, params[i].W.Cols)
		}
		copy(params[i].W.Data, tm.Data.Data)
		w.t.RecycleTensor(tm.Data)
	}
	nslots := man.Opt.Slots()
	slots := make([][][]float64, nslots)
	for s := 0; s < nslots; s++ {
		slots[s] = make([][]float64, nparams)
		for i := 0; i < nparams; i++ {
			tm, err := recvTensor(ctx, w.t)
			if err != nil {
				return err
			}
			if tm.Class != tensOptS || tm.Index != s*nparams+i {
				return fmt.Errorf("train: optimizer-state broadcast out of order (class %d index %d, want %d)",
					tm.Class, tm.Index, s*nparams+i)
			}
			slots[s][i] = tm.Data.Data
		}
	}
	_, doneEnv, err := recvEnvelope(ctx, w.t)
	if err != nil {
		return err
	}
	if doneEnv.Kind != ctrlWeightsDone {
		return fmt.Errorf("train: worker expected weights-done, got %q", doneEnv.Kind)
	}
	w.optStep = doneEnv.OptStep
	exec, err := w.buildExecutor(man, net)
	if err == nil && nslots > 0 {
		err = restoreExecState(exec, man, net, w.optStep, slots)
	}
	if err != nil {
		if !(man.Survivable && errors.Is(err, transport.ErrPeerDown)) {
			// A peer dying mid-rebuild is reported with death evidence by the
			// reconfig path instead; anything else is this rank's own failure.
			sendEnvelope(w.t, coord, envelope{Kind: ctrlAbort, Err: err.Error()}) //nolint:errcheck // best-effort before failing
		}
		return err
	}
	w.exec = exec
	w.net = net
	return sendEnvelope(w.t, coord, envelope{Kind: ctrlReady, Step: int(man.Epoch)})
}

// buildExecutor constructs this rank's executor for the manifest's plan —
// shared by the broadcast and checkpoint-stream session builds.
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
		Dist: &DistConfig{Transport: w.dataTransport(), Rank: w.rank, DeviceRanks: man.DeviceRanks},
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
func (w *Worker) sendSnapshot(env envelope) error {
	coord := w.coordRank()
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
		plo := offs[ss.Lo]
		for j, p := range params {
			if err := w.t.SendTensor(coord, tensSnapW, plo+j, p.W); err != nil {
				return err
			}
		}
		if st, ok := w.exec.StageOptimizer(si, replica).(nn.Stateful); ok {
			state := st.CaptureState(params)
			if state.Step > optStep {
				optStep = state.Step
			}
			for s, slot := range state.Slots {
				for j, vec := range slot {
					m := &tensor.Matrix{Rows: params[j].W.Rows, Cols: params[j].W.Cols, Data: vec}
					if err := w.t.SendTensor(coord, tensSnapS, s*nparams+plo+j, m); err != nil {
						return err
					}
				}
			}
		}
	}
	return sendEnvelope(w.t, coord, envelope{Kind: ctrlSnapAck, Step: env.Step, OptStep: optStep})
}

// reconfig rebuilds the session onto a recovery manifest: retire the torn
// transport generation, drain stale tensors up to the coordinator's flush
// marker, then rebuild the executor — from the restored state broadcast, or
// from the checkpoint stream when the reconfig announces one (this rank
// joined mid-session and holds no prior state). Death verdicts pause for the
// duration: peers rebuilding alongside are legitimately silent.
func (w *Worker) reconfig(ctx context.Context, env envelope) error {
	if env.Manifest == nil {
		return fmt.Errorf("train: reconfig without manifest")
	}
	man := env.Manifest
	w.man = man
	w.hb.Suspend()
	defer w.hb.Resume()
	w.t.Retire(man.Epoch)
	for w.flushSeen < int(man.Epoch) {
		tm, err := recvTensor(ctx, w.t)
		if err != nil {
			return err
		}
		if tm.Class == tensFlush {
			w.flushSeen = tm.Index
		}
		w.t.RecycleTensor(tm.Data)
	}
	var err error
	if env.CkptBytes > 0 {
		err = w.buildSessionFromCkpt(ctx, man, env.CkptBytes)
	} else {
		err = w.buildSession(ctx, man)
	}
	if err != nil && man.Survivable && errors.Is(err, transport.ErrPeerDown) {
		// A manifest peer (a joiner, typically) died while this rank was
		// rebuilding around it: report the evidence and stay alive — the
		// coordinator's next round re-plans without the corpse.
		return w.stepFailed(env.Step, err)
	}
	return err
}

// runStep receives one step's micro-batches and executes the local share of
// the plan, watching the control plane throughout so a peer's abort or a
// recovery reconfig cancels a step blocked on cross-process transfers. In a
// survivable session an executor failure is reported with death evidence
// and survived (the worker waits for the coordinator's verdict); the
// returned envelope, when non-nil, is a reconfig that interrupted the step
// and must be processed next.
func (w *Worker) runStep(ctx context.Context, env envelope) (*envelope, error) {
	coord := w.coordRank()
	micros := w.microBuf[:0]
	for mb := 0; mb < env.M; mb++ {
		x, err := recvTensor(ctx, w.t)
		if err != nil {
			return nil, err
		}
		if x.Class == tensFlush {
			// A recovery started while this step's tensors were in flight:
			// abandon the step; the reconfig envelope is already queued.
			w.flushSeen = x.Index
			w.t.RecycleTensor(x.Data)
			w.recycleMicros(micros)
			return nil, nil
		}
		y, err := recvTensor(ctx, w.t)
		if err != nil {
			return nil, err
		}
		if y.Class == tensFlush {
			w.flushSeen = y.Index
			w.t.RecycleTensor(x.Data)
			w.t.RecycleTensor(y.Data)
			w.recycleMicros(micros)
			return nil, nil
		}
		if x.Class != tensX || y.Class != tensY || x.Index != mb || y.Index != mb {
			return nil, fmt.Errorf("train: step %d micro %d arrived out of order", env.Step, mb)
		}
		labels := w.leaseLabels(mb, y.Data.Rows)
		for i := range labels {
			labels[i] = int(y.Data.Data[i])
		}
		w.t.RecycleTensor(y.Data)
		micros = append(micros, Batch{X: x.Data, Y: labels})
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
	select {
	case out := <-done:
		// The executor has returned; its input leases can go back to the
		// reader pumps.
		w.recycleMicros(micros)
		if out.err != nil {
			return nil, w.stepFailed(env.Step, out.err)
		}
		return nil, sendEnvelope(w.t, coord, envelope{Kind: ctrlStepDone, Step: env.Step, Loss: out.res.Loss})
	case cm := <-w.t.Ctrl():
		// The coordinator interrupted the step: a relayed abort, a recovery
		// reconfig, or something unexpected (equally fatal). Cancel the
		// local step so its workers unblock from cross-process receives.
		var e envelope
		err := json.Unmarshal(cm.Data, &e)
		w.t.RecycleCtrl(cm.Data)
		if err == nil && e.Kind == ctrlReconfig {
			next = &e
		} else if err == nil && e.Kind == ctrlAbort {
			aborted = fmt.Errorf("train: session aborted by coordinator: %s", e.Err)
		} else {
			aborted = fmt.Errorf("train: unexpected control frame from rank %d mid-step", cm.Peer)
		}
	case <-w.t.Done():
		aborted = w.t.Err()
	case <-ctx.Done():
		aborted = ctx.Err()
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

// stepFailed reports an executor failure. In a survivable session the
// report carries the ranks this worker saw die and the worker stays alive
// for the coordinator's recovery; otherwise the failure ends the worker,
// preserving fail-stop semantics.
func (w *Worker) stepFailed(step int, cause error) error {
	coord := w.coordRank()
	if !w.man.Survivable {
		sendEnvelope(w.t, coord, envelope{Kind: ctrlAbort, Step: step, Err: cause.Error()}) //nolint:errcheck // best-effort on a dying session
		return cause
	}
	downs, _ := w.t.PeerDowns()
	evidence := make([]int, 0, len(downs))
	for _, r := range downs {
		if r != coord {
			evidence = append(evidence, r)
		}
	}
	err := sendEnvelope(w.t, coord, envelope{Kind: ctrlAbort, Step: step, Err: cause.Error(), Down: evidence})
	if err != nil {
		return err
	}
	return nil // await the coordinator's reconfig or abort
}
