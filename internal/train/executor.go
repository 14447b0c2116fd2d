package train

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"dapple/internal/core"
	"dapple/internal/hardware"
	"dapple/internal/nn"
	"dapple/internal/schedule"
	"dapple/internal/sim"
	"dapple/internal/tensor"
	"dapple/internal/trace"
	"dapple/internal/transport"
)

// errAborted is returned by workers unblocked by the step's abort channel;
// StepContext replaces it with the first real failure (or ctx.Err()). It is
// the transport abort sentinel, so edge receives unblocked by the same
// channel need no translation.
var errAborted = transport.ErrAborted

// DistConfig places one executor inside a multi-process training session:
// the TCP mesh connecting the worker processes, this process's rank, and
// the device-to-rank placement. An executor with a DistConfig hosts only
// the stage replicas whose devices map to its rank; stage-boundary pairs
// crossing ranks run over the TCP transport, same-rank pairs stay on the
// zero-copy in-process backend, and replica groups spanning ranks
// synchronize gradients hierarchically (local reduce, cross-process
// exchange, local broadcast).
type DistConfig struct {
	// Transport is the process mesh (connected to every peer rank that
	// shares a stage boundary or replica group with this one). The executor
	// only opens edges and groups on it, so any Transport works — the TCP
	// backend in production, a transport.Chaos wrapper in fault-injection
	// tests.
	Transport transport.Transport
	// Rank is this process's rank in the mesh.
	Rank int
	// DeviceRanks maps every cluster device ID to its hosting rank.
	DeviceRanks []int
}

// rankOf returns the hosting rank of device d.
func (dc *DistConfig) rankOf(d hardware.DeviceID) int { return dc.DeviceRanks[int(d)] }

// ExecOptions configure plan-driven execution.
type ExecOptions struct {
	// Policy selects the micro-batch schedule. It is the simulator's policy
	// type (schedule.GPipe floods, schedule.DapplePA/DapplePB run early
	// backward), so one plan drives both runtimes identically.
	Policy schedule.Policy

	// Recompute stashes only each stage's input and re-runs the forward pass
	// during backward (§III re-computation).
	Recompute bool

	// NoTrace skips span recording, for benchmarks measuring pure execution.
	NoTrace bool

	// Dist, when non-nil, runs this executor as one rank of a multi-process
	// session: only replicas placed on Dist.Rank are hosted and cross-rank
	// traffic uses Dist.Transport. Nil (the default) hosts every replica
	// in-process.
	Dist *DistConfig

	// bucketBytes overrides defaultBucketBytes as the flattened size of one
	// gradient bucket (0 = default), so tests can pin every bucket layout
	// against the one-bucket oracle.
	bucketBytes int
}

// prefetchDepth bounds how many forward inputs each worker's receive
// prefetcher may assemble ahead of compute — classic double-buffering. Depth
// only changes overlap, never event order: the recorded compute spans still
// follow the schedule exactly. Prefetched but not-yet-consumed inputs are
// transfer-side state OUTSIDE the stash memory model: they are not charged
// to MaxStash/MaxStashBytes (which mirror the simulator's
// stashed-for-backward accounting), so real resident bytes can exceed
// MaxStashBytes by up to prefetchDepth+1 in-flight micro-batch inputs per
// device (prefetchDepth buffered ready plus one assembled in the
// prefetcher's hand).
const prefetchDepth = 2

// ExecResult reports one really-executed training iteration of a plan.
type ExecResult struct {
	// Loss is the micro-batch-averaged cross-entropy of the iteration.
	Loss float64
	// M is the number of micro-batches executed.
	M int
	// Warmup is the per-stage early-backward depth K_i actually used; it is
	// derived through schedule.WarmupDepths and therefore always equals the
	// simulator's for the same plan and options.
	Warmup []int
	// MaxStash is the peak number of concurrently stashed micro-batches per
	// stage (identical on every replica of a stage).
	MaxStash []int
	// MaxStashBytes is the peak stashed activation volume on any single
	// device of each stage — the simulator's stashed-for-backward memory
	// model. Transfer-side state (prefetched inputs, recycled link buffers)
	// is excluded; see prefetchDepth.
	MaxStashBytes []int64
	// WallTime is the wall-clock duration of the step in seconds.
	WallTime float64
	// CommSeconds is the per-stage busy time of the gradient collectives
	// (the time the step's comm driver spent inside bucket all-reduces), in
	// seconds of wall clock. Zero for stages that sync nothing.
	CommSeconds []float64
	// CommWaitSeconds is the per-stage exposed synchronization time: the
	// max over local replicas of wall clock spent blocked at the step-end
	// gradient sync after compute finished. Bucket collectives launched
	// during backward have already run by then, so the gap between
	// CommSeconds and CommWaitSeconds is the communication hidden behind
	// compute.
	CommWaitSeconds []float64
	// Trace holds the real-execution spans in the simulator's result shape
	// (resources "s<stage>.d<device>", task names "F<m>.s<i>", "B<m>.s<i>",
	// "AR.s<i>"), directly comparable to a schedule.Result's spans. Nil when
	// ExecOptions.NoTrace is set.
	Trace *sim.Result
}

// OverlapEfficiency reports the fraction of gradient-collective busy time
// hidden behind compute this step: 1 - sum(CommWaitSeconds)/sum(CommSeconds),
// clamped to [0, 1]. Zero when the step ran no collectives (or hid nothing);
// the exposed wait includes time spent waiting for straggler replicas at the
// sync point, so a perfectly overlapped but imbalanced stage reads below 1.
func (r *ExecResult) OverlapEfficiency() float64 {
	var comm, wait float64
	for _, c := range r.CommSeconds {
		comm += c
	}
	for _, w := range r.CommWaitSeconds {
		wait += w
	}
	if comm <= 0 {
		return 0
	}
	eff := 1 - wait/comm
	if eff < 0 {
		return 0
	}
	if eff > 1 {
		return 1
	}
	return eff
}

// Executor runs a planner core.Plan on a real nn.Network: every device of
// every stage becomes one worker goroutine executing the plan's layer range
// on its row slice of each micro-batch, stage boundaries are channel links
// with split/concat row redistribution (§V-B2), replicated stages synchronize
// gradients with a real bucketed all-reduce that overlaps backward compute,
// and the whole step is recorded as a span trace comparable to the
// simulator's. It is the runtime half of the paper's workflow: the planner's
// output is executed, not only simulated.
//
// The executor is allocation-free at steady state: every buffer a step
// touches — layer activations and gradients (per-worker tensor.Pool
// workspaces), link transfer buffers, all-reduce scratch, schedule orders,
// span names, trace buffers — is owned by the Executor and reused across
// Steps, so after one warm-up iteration with a given micro-batch geometry
// the hot path spends its time in compute, not the allocator. Forward
// receives are prefetched by a per-worker goroutine (double-buffered) so
// cross-stage transfers overlap compute.
//
// An Executor is not safe for concurrent Steps (it reuses per-step state);
// gradients from any executed plan match SequentialStep on the unpartitioned
// network to float tolerance.
type Executor struct {
	plan *core.Plan
	opts ExecOptions

	// inDim and classes are the master network's input width and class
	// count, against which every micro-batch is checked before it reaches a
	// device goroutine.
	inDim, classes int

	stages []*estage

	// Construction-time persistent state.
	rec       *trace.Recorder // nil when tracing is off
	resID     [][]int         // recorder resource per [stage][replica]
	errs      [][]error       // per-step worker errors, reused
	lossParts []float64       // last stage's per-replica loss, reused

	// inproc realizes same-process stage-boundary edges (all of them when
	// opts.Dist is nil).
	inproc *transport.Inproc

	// gradsDirty marks that an aborted step may have left partial gradient
	// accumulations in non-committed stages; the next step zeroes them
	// before computing so its update is built from its own gradients alone.
	gradsDirty bool

	// Geometry-dependent caches, rebuilt when (rows, m) changes or a step
	// aborts with transfers in flight.
	rtRows, rtM int
	rtValid     bool
	bounds      []*boundary
	warmup      []int

	ss stepState
}

// estage is one pipeline stage of an Executor: the carved layer range cloned
// per replica, per-replica optimizers and worker state, the stage's gradient
// all-reduce group, and the geometry-dependent schedule caches every replica
// shares.
type estage struct {
	lo, hi int
	repl   int                 // global replica count
	devs   []hardware.DeviceID // replica devices, global
	hosted []bool              // replica hosted in this process
	local  []int               // replica -> local index among hosted (-1)
	nets   []*nn.Network       // indexed by replica; nil when not hosted
	opts   []nn.Optimizer
	work   []*workerState
	ar     *arGroup // nil unless hosted replicas have gradients to sum

	// Rebuilt by ensureRuntime per (rows, m) geometry.
	offs     []int         // replica row offsets, len(nets)+1
	order    []schedule.Op // the stage's FW/BW sequence
	fwdOrder []int         // micro-batch ids in forward arrival order
	fwdNames []string      // span names "F<m>.s<i>", reused every step
	bwdNames []string      // span names "B<m>.s<i>"
	arName   string        // span name "AR.s<i>"
}

// workerState is one replica worker's persistent runtime: its workspace
// arena, cached parameter list, gradient flattening buffer (stages with an
// arGroup), per-micro-batch stash slots, and (stages > 0) its receive
// prefetcher.
type workerState struct {
	ws      *nn.Workspace
	params  []nn.Param
	gradBuf []float64

	// bwHook, set on stages with an arGroup, fires per layer during the final
	// backward pass: it flattens the completed bucket's gradients into
	// gradBuf and (except for the head bucket, withheld until the sync
	// point as the all-or-nothing gate) reports them to the all-reduce
	// group, launching the bucket's collective while backward continues.
	bwHook func(layer int)

	stashes []rstash         // indexed by micro-batch, len m
	pending []*tensor.Matrix // last stage: pooled loss gradients
	xHdrs   []tensor.Matrix  // stage 0: reusable input view headers
	bparts  []transport.Msg  // recvBwd scratch
	pf      *prefetcher      // stages > 0: forward-input prefetcher

	liveStash int
	curBytes  int64
	maxStash  int
	maxBytes  int64
	commWait  int64 // nanos blocked at the step-end gradient sync
}

// rstash holds one in-flight micro-batch's backward state on one replica.
type rstash struct {
	run    nn.WSRun
	in     *tensor.Matrix      // forward input (view or assembled buffer)
	inFree chan *tensor.Matrix // recycle destination for in (nil for views)
	out    *tensor.Matrix      // recompute: detached output, held until bwd
	bytes  int64
	live   bool
}

// NewExecutor carves master into the plan's stages (one deep-copied network
// and one optimizer per replica device; master keeps the reference weights)
// and validates that the plan's profiled layers map one-to-one onto the
// network's layers.
func NewExecutor(p *core.Plan, master *nn.Network, optFactory func() nn.Optimizer, opts ExecOptions) (*Executor, error) {
	if p == nil {
		return nil, fmt.Errorf("train: executor of a nil plan")
	}
	if master == nil {
		return nil, fmt.Errorf("train: executor of a nil network")
	}
	if optFactory == nil {
		return nil, fmt.Errorf("train: executor needs an optimizer factory")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := p.CompatibleWithLayers(master.NumLayers()); err != nil {
		return nil, err
	}
	dist := opts.Dist
	if dist != nil {
		if dist.Transport == nil {
			return nil, fmt.Errorf("train: distributed executor needs a transport")
		}
		if n := p.Cluster.NumDevices(); len(dist.DeviceRanks) < n {
			return nil, fmt.Errorf("train: device-rank map covers %d of %d devices", len(dist.DeviceRanks), n)
		}
	}
	e := &Executor{plan: p, opts: opts, inproc: transport.NewInproc(), stages: make([]*estage, 0, len(p.Stages))}
	e.inDim, e.classes = netShape(master)
	for si, s := range p.Stages {
		st := &estage{lo: s.Lo, hi: s.Hi, repl: s.Replicas(), devs: s.Devices}
		st.nets = make([]*nn.Network, st.repl)
		st.opts = make([]nn.Optimizer, st.repl)
		st.work = make([]*workerState, st.repl)
		st.hosted = make([]bool, st.repl)
		st.local = make([]int, st.repl)
		var localDevs []hardware.DeviceID
		for r := 0; r < st.repl; r++ {
			st.local[r] = -1
			if dist != nil && dist.rankOf(s.Devices[r]) != dist.Rank {
				continue
			}
			st.hosted[r] = true
			st.local[r] = len(localDevs)
			localDevs = append(localDevs, s.Devices[r])
			net := master.SliceClone(s.Lo, s.Hi)
			st.nets[r] = net
			st.opts[r] = optFactory()
			st.work[r] = &workerState{ws: nn.NewWorkspace(), params: net.Params()}
		}
		if len(localDevs) > 0 && st.repl > 1 {
			if err := st.initSync(si, p.Cluster, localDevs, dist, opts.bucketBytes); err != nil {
				return nil, err
			}
		}
		e.stages = append(e.stages, st)
	}
	e.errs = make([][]error, len(e.stages))
	for i, st := range e.stages {
		e.errs[i] = make([]error, len(st.nets))
	}
	e.lossParts = make([]float64, len(e.stages[len(e.stages)-1].nets))
	if !opts.NoTrace {
		e.rec = trace.NewRecorder()
		e.resID = make([][]int, len(p.Stages))
		for i, s := range p.Stages {
			e.resID[i] = make([]int, len(s.Devices))
			for r, d := range s.Devices {
				e.resID[i][r] = e.rec.Resource(deviceResource(i, int(d)))
			}
		}
	}
	return e, nil
}

// stageRanks returns the sorted distinct ranks hosting the stage's devices.
func stageRanks(dist *DistConfig, devs []hardware.DeviceID) []int {
	var ranks []int
	for _, d := range devs {
		r := dist.rankOf(d)
		dup := false
		for _, x := range ranks {
			if x == r {
				dup = true
				break
			}
		}
		if !dup {
			ranks = append(ranks, r)
		}
	}
	for i := 1; i < len(ranks); i++ {
		for j := i; j > 0 && ranks[j] < ranks[j-1]; j-- {
			ranks[j], ranks[j-1] = ranks[j-1], ranks[j]
		}
	}
	return ranks
}

// initSync gives replicated stage si its gradient-sync group when the stage
// has gradients to sum: a bucketed arGroup over the hosted network's bucket
// layout, and per hosted worker the gradient buffer plus the backward hook
// that reports each completed bucket. A parameter-free stage keeps st.ar nil
// and syncs nothing.
func (st *estage) initSync(si int, c hardware.Cluster, localDevs []hardware.DeviceID, dist *DistConfig, bucketBytes int) error {
	var net *nn.Network
	for _, n := range st.nets {
		if n != nil {
			net = n
			break
		}
	}
	specs := bucketLayout(net, bucketBytes)
	if specs == nil {
		return nil
	}
	// A stage whose replica group spans worker processes exchanges
	// gradients over the mesh; the member ranks are every rank hosting one
	// of the stage's devices, and each opens the same groups by bucketGID.
	var openDist func(b, sz int) (transport.Group, error)
	if dist != nil {
		if ranks := stageRanks(dist, st.devs); len(ranks) > 1 {
			openDist = func(b, sz int) (transport.Group, error) {
				return dist.Transport.OpenGroup(bucketGID(si, b), ranks, sz)
			}
		}
	}
	g := newARGroup(len(localDevs), c, localDevs, openDist != nil)
	if err := g.initBuckets(len(net.Layers), specs, openDist); err != nil {
		return err
	}
	st.ar = g
	size := specs[len(specs)-1].End
	for r, w := range st.work {
		if w == nil {
			continue
		}
		w.gradBuf = make([]float64, size)
		lr := st.local[r]
		w.bwHook = func(li int) {
			b := g.layerBucket[li]
			if b < 0 {
				return
			}
			sp := &g.buckets[b].spec
			flattenParamGrads(w.gradBuf[sp.Off:sp.End], w.params, sp.PLo, sp.PHi)
			if b > 0 {
				g.arriveBucket(lr, b, w.gradBuf[sp.Off:sp.End])
			}
		}
	}
	return nil
}

// ExecutePlan carves master by p, executes one training iteration over the
// micro-batches under ctx, and applies synchronized updates — the one-shot
// form of NewExecutor followed by StepContext.
func ExecutePlan(ctx context.Context, p *core.Plan, master *nn.Network, micros []Batch, optFactory func() nn.Optimizer, opts ExecOptions) (*ExecResult, error) {
	e, err := NewExecutor(p, master, optFactory, opts)
	if err != nil {
		return nil, err
	}
	return e.StepContext(ctx, micros)
}

// Plan returns the plan the executor realizes.
func (e *Executor) Plan() *core.Plan { return e.plan }

// deviceResource names the real-trace resource of stage's device dev; the
// sim-vs-real tooling resolves per-device span sequences by this name.
func deviceResource(stage, dev int) string { return fmt.Sprintf("s%d.d%d", stage, dev) }

// NumStages returns the stage count.
func (e *Executor) NumStages() int { return len(e.stages) }

// StageParams returns the parameters of stage i's replica r, for equivalence
// checks against a reference network.
func (e *Executor) StageParams(i, r int) []nn.Param { return e.stages[i].nets[r].Params() }

// StageOptimizer returns the optimizer of stage i's replica r (nil when the
// replica is not hosted here), so session checkpointing can capture and
// restore per-replica optimizer state.
func (e *Executor) StageOptimizer(i, r int) nn.Optimizer { return e.stages[i].opts[r] }

// HostsReplica reports whether stage i's replica r lives in this process
// (always true without a DistConfig).
func (e *Executor) HostsReplica(i, r int) bool { return e.stages[i].hosted[r] }

// AllReduceAlgo names the gradient collective stage i selected from the
// plan topology: "none" for unreplicated or parameter-free stages, "ring"
// for single-server (or one-replica-per-server) groups, "hierarchical" for
// server-spanning groups with co-located replicas and for groups spanning
// worker processes. Stages with no locally hosted replica return "".
func (e *Executor) AllReduceAlgo(i int) string {
	st := e.stages[i]
	switch {
	case st.ar != nil:
		return st.ar.algo
	case slices.Contains(st.hosted, true):
		return "none"
	}
	return ""
}

// stepAbort is one step's abort latch. It is allocated per step (not reused)
// so that a context.AfterFunc callback firing after its step already
// returned closes its own dead latch instead of racing the next step's —
// stop() does not wait for an in-flight callback.
type stepAbort struct {
	ch   chan struct{}
	once sync.Once
}

// fire closes the latch once.
func (a *stepAbort) fire() {
	a.once.Do(func() { close(a.ch) })
}

// stepState carries one Step's shared runtime: micro-batches and abort
// plumbing. It lives inside the Executor and is reset, not reallocated, per
// step (except the abort latch — see stepAbort).
type stepState struct {
	micros []Batch
	rows   int
	m      int

	abort chan struct{} // the current step's stepAbort.ch
}

// now returns the recorder clock, or 0 when tracing is off.
func (e *Executor) now() float64 {
	if e.rec == nil {
		return 0
	}
	return e.rec.Now()
}

// record closes a span opened at start on the worker's resource.
func (e *Executor) record(stage, replica int, name, kind string, start float64) {
	if e.rec == nil {
		return
	}
	e.rec.Record(e.resID[stage][replica], name, kind, start, e.rec.Now())
}

// ensureRuntime (re)builds the geometry-dependent caches — warmup depths,
// boundaries with their transfer state, schedule orders, span-name tables,
// stash slots and prefetchers — when the step geometry changed or the last
// step aborted with links in an undefined state. A repeated geometry is a
// no-op, which is what makes steady-state iterations allocation-free.
func (e *Executor) ensureRuntime(rows, m int) error {
	if e.rtValid && e.rtRows == rows && e.rtM == m {
		return nil
	}
	warmup, err := schedule.WarmupDepths(e.plan, schedule.Options{
		Policy: e.opts.Policy, Recompute: e.opts.Recompute, M: m,
	})
	if err != nil {
		return err
	}
	e.warmup = warmup
	s := len(e.stages)
	e.bounds = make([]*boundary, s-1)
	for i := 0; i < s-1; i++ {
		var err error
		if e.bounds[i], err = e.buildBoundary(i, rows, m); err != nil {
			return err
		}
	}
	for i, st := range e.stages {
		st.offs = partition(rows, st.repl)
		st.order = schedule.StageOrder(e.opts.Policy, m, warmup[i])
		st.fwdOrder = st.fwdOrder[:0]
		for _, o := range st.order {
			if !o.Backward {
				st.fwdOrder = append(st.fwdOrder, o.M)
			}
		}
		st.fwdNames = make([]string, m)
		st.bwdNames = make([]string, m)
		for mb := 0; mb < m; mb++ {
			st.fwdNames[mb] = fmt.Sprintf("F%d.s%d", mb, i)
			st.bwdNames[mb] = fmt.Sprintf("B%d.s%d", mb, i)
		}
		st.arName = fmt.Sprintf("AR.s%d", i)
		for r, w := range st.work {
			if w == nil {
				continue
			}
			w.stashes = make([]rstash, m)
			w.pending = make([]*tensor.Matrix, m)
			if i == 0 {
				w.xHdrs = make([]tensor.Matrix, m)
			}
			if w.bparts == nil {
				w.bparts = make([]transport.Msg, 0, 4)
			}
			if i > 0 {
				w.pf = &prefetcher{
					bound: e.bounds[i-1],
					q:     r,
					rows:  st.offs[r+1] - st.offs[r],
					ready: make(chan prefetched, prefetchDepth),
					free:  make(chan *tensor.Matrix, m),
					parts: make([]transport.Msg, 0, e.stages[i-1].repl),
				}
			}
		}
	}
	e.rtRows, e.rtM, e.rtValid = rows, m, true
	return nil
}

// buildBoundary realizes cut i's edge matrix: pairs whose endpoints both
// live in this process share an in-process edge, pairs crossing ranks open
// the TCP edge toward the remote endpoint, and pairs entirely remote stay
// nil. Without a DistConfig every pair is in-process — today's channel
// semantics exactly.
func (e *Executor) buildBoundary(i, rows, m int) (*boundary, error) {
	snd, rcv := e.stages[i], e.stages[i+1]
	dist := e.opts.Dist
	mk := func(id transport.EdgeID) (transport.Edge, error) {
		// For Bwd edges the EdgeID's S is the downstream (receiver stage)
		// replica and Q the upstream one; hosting is a property of the
		// stages, not of the message direction.
		up, down := id.S, id.Q
		if id.Dir == transport.Bwd {
			up, down = id.Q, id.S
		}
		uh, dh := snd.hosted[up], rcv.hosted[down]
		switch {
		case uh && dh:
			return e.inproc.OpenEdge(id, 0, m)
		case uh:
			return dist.Transport.OpenEdge(id, dist.rankOf(rcv.devs[down]), m)
		case dh:
			return dist.Transport.OpenEdge(id, dist.rankOf(snd.devs[up]), m)
		default:
			return nil, nil
		}
	}
	return newBoundary(i, rows, snd.repl, rcv.repl, m, mk)
}

// Step executes one training iteration over the micro-batches and applies
// synchronized updates.
func (e *Executor) Step(micros []Batch) (*ExecResult, error) {
	return e.StepContext(context.Background(), micros)
}

// StepContext is Step under a context: all worker goroutines unblock and the
// step returns ctx.Err() once ctx is cancelled or past its deadline. An
// aborted step applies each stage's weight update all-or-nothing (see
// arGroup.waitBuckets/abandon), so replicas within a stage stay identical and the
// executor remains usable; different stages may however land on different
// iterations (some updated, some not), like any training step torn by
// cancellation.
func (e *Executor) StepContext(ctx context.Context, micros []Batch) (*ExecResult, error) {
	s := len(e.stages)
	m := len(micros)
	if m == 0 {
		return nil, fmt.Errorf("train: no micro-batches")
	}
	for _, b := range micros {
		if err := b.check(e.inDim, e.classes); err != nil {
			return nil, err
		}
		if b.X.Rows != micros[0].X.Rows {
			return nil, fmt.Errorf("train: plan-driven step needs equal micro-batches (%d vs %d rows)", b.X.Rows, micros[0].X.Rows)
		}
	}
	rows := micros[0].X.Rows
	for i, st := range e.stages {
		if rows < st.repl {
			return nil, fmt.Errorf("train: micro-batch of %d rows split across %d replicas of stage %d", rows, st.repl, i)
		}
	}
	if err := e.ensureRuntime(rows, m); err != nil {
		return nil, err
	}

	// Per-step reset of the persistent runtime.
	ss := &e.ss
	ss.micros, ss.rows, ss.m = micros, rows, m
	ab := &stepAbort{ch: make(chan struct{})}
	ss.abort = ab.ch
	if e.rec != nil {
		e.rec.Reset()
	}
	for i, st := range e.stages {
		if st.ar != nil {
			st.ar.reset()
		}
		for r, w := range st.work {
			if w == nil {
				continue
			}
			w.liveStash, w.curBytes, w.maxStash, w.maxBytes = 0, 0, 0, 0
			w.commWait = 0
			e.errs[i][r] = nil
			if e.gradsDirty {
				// A previously aborted step may have left partial gradient
				// accumulations in stages that never committed; start clean.
				for _, p := range w.params {
					p.G.Zero()
				}
			}
		}
	}
	e.gradsDirty = false
	for i := range e.lossParts {
		e.lossParts[i] = 0
	}

	// A cancelled context aborts every blocked worker. The callback captures
	// this step's own latch: a late firing after the step returned must not
	// touch the (reused) step state of a subsequent Step.
	stop := context.AfterFunc(ctx, ab.fire)
	defer stop()

	wallStart := time.Now()
	var wg sync.WaitGroup
	for _, st := range e.stages {
		if st.ar != nil {
			// The stage's per-step comm driver: runs bucket collectives in
			// arrival order while replicas keep computing. It always drains
			// exactly len(buckets) buckets (abandon resolves the buckets of
			// failed replicas), so the join below cannot hang.
			wg.Add(1)
			go func(g *arGroup) {
				defer wg.Done()
				g.runComm(ss.abort)
			}(st.ar)
		}
	}
	for i, st := range e.stages {
		for r := range st.nets {
			w := st.work[r]
			if w == nil {
				continue
			}
			if w.pf != nil {
				// Prefetchers join the step's wait group: an aborted step's
				// stale prefetcher must be fully exited before a later step
				// rebuilds the state it reads.
				wg.Add(1)
				go func(pf *prefetcher, fwdOrder []int) {
					defer wg.Done()
					pf.run(fwdOrder, ss.abort)
				}(w.pf, st.fwdOrder)
			}
			wg.Add(1)
			go func(i, r int) {
				defer wg.Done()
				if err := e.runWorker(ss, i, r); err != nil {
					e.errs[i][r] = err
					ab.fire()
				}
			}(i, r)
		}
	}
	wg.Wait()
	wall := time.Since(wallStart).Seconds()
	select {
	case <-ss.abort:
		// Aborted steps leave transfers, pool leases and possibly partial
		// gradient accumulations in an undefined state; the next step
		// rebuilds the runtime and zeroes hosted gradients first.
		e.rtValid = false
		e.gradsDirty = true
	default:
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, stageErrs := range e.errs {
		for _, err := range stageErrs {
			if err != nil && !errors.Is(err, errAborted) {
				return nil, err
			}
		}
	}

	res := &ExecResult{
		M:               m,
		Warmup:          append([]int(nil), e.warmup...),
		MaxStash:        make([]int, s),
		MaxStashBytes:   make([]int64, s),
		CommSeconds:     make([]float64, s),
		CommWaitSeconds: make([]float64, s),
		WallTime:        wall,
	}
	for _, l := range e.lossParts {
		res.Loss += l
	}
	res.Loss /= float64(m)
	for i, st := range e.stages {
		if st.ar != nil {
			res.CommSeconds[i] = float64(st.ar.commNanos) / 1e9
		}
		for _, w := range st.work {
			if w == nil {
				continue
			}
			res.MaxStash[i] = max(res.MaxStash[i], w.maxStash)
			res.MaxStashBytes[i] = max(res.MaxStashBytes[i], w.maxBytes)
			res.CommWaitSeconds[i] = max(res.CommWaitSeconds[i], float64(w.commWait)/1e9)
		}
	}
	if e.rec != nil {
		res.Trace = e.rec.Result()
	}
	return res, nil
}

// prefetched is one forward input delivered by a prefetcher, in schedule
// order: the assembled micro-batch rows plus the recycle destination for the
// buffer (nil when data is a zero-copy view into sender-owned storage).
type prefetched struct {
	m    int
	data *tensor.Matrix
	free chan *tensor.Matrix
	err  error
}

// prefetcher receives and assembles one worker's forward inputs ahead of
// compute on its own goroutine — the recv double-buffering of the ROADMAP's
// overlap item. It delivers micro-batches in the stage's forward schedule
// order; the bounded ready channel caps how far it runs ahead.
type prefetcher struct {
	bound *boundary
	q     int
	rows  int
	ready chan prefetched
	free  chan *tensor.Matrix
	parts []transport.Msg
}

// run receives every forward input of one step in order, assembling
// multi-sender parts into recycled buffers, until done or aborted. A single
// full-range part is forwarded zero-copy with its own recycle destination
// (nil for in-process views, the transfer ring for TCP arrivals).
func (pf *prefetcher) run(fwdOrder []int, abort <-chan struct{}) {
	for _, mb := range fwdOrder {
		parts, err := pf.bound.recvFwdParts(pf.q, mb, pf.parts, abort)
		if err != nil {
			if err != errAborted {
				select {
				case pf.ready <- prefetched{err: err}:
				case <-abort:
				}
			}
			return
		}
		pf.parts = parts
		var out prefetched
		if len(parts) == 1 {
			out = prefetched{m: mb, data: parts[0].Data, free: parts[0].Free}
		} else {
			dst := transport.LeaseBuf(pf.free, pf.rows, parts[0].Data.Cols)
			concatMsgRows(dst, parts)
			for _, p := range parts {
				transport.Recycle(p.Free, p.Data)
			}
			out = prefetched{m: mb, data: dst, free: pf.free}
		}
		select {
		case pf.ready <- out:
		case <-abort:
			return
		}
	}
}

// runWorker executes stage i's replica r: the compute phase (its slice of
// every micro-batch in the policy's stage order through the workspace
// pooled-buffer path), then the stage gradient sync and weight update. A
// compute-phase failure is reported to the stage's all-reduce group so peer
// replicas neither hang nor commit a torn update.
func (e *Executor) runWorker(ss *stepState, i, r int) error {
	st := e.stages[i]
	w := st.work[r]
	g := st.ar
	loss, err := e.workerCompute(ss, i, r)
	if err != nil {
		if g != nil {
			g.abandon(st.local[r])
		}
		return err
	}

	// Gradient sync and weight update (Fig. 10): sum replica gradients with
	// the stage's collective (flat ring, hierarchical, or cross-process
	// exchange), average over micro-batches, apply identical updates per
	// replica. The sync decides commit-or-abort atomically for the whole
	// stage, so an aborted step can never leave local replicas divergent.
	start := e.now()
	if g != nil {
		// Buckets 1.. were reported layer by layer during the final backward
		// and their collectives have been overlapping compute; contribute the
		// withheld head bucket — the all-clear that this replica finished the
		// whole compute phase — and wait out whatever communication is still
		// exposed.
		t0 := time.Now()
		hb := &g.buckets[0]
		g.arriveBucket(st.local[r], 0, w.gradBuf[hb.spec.Off:hb.spec.End])
		commit := g.waitBuckets()
		w.commWait = time.Since(t0).Nanoseconds()
		if !commit {
			return errAborted
		}
		setGradVector(w.params, w.gradBuf)
	}
	scaleGrads(w.params, 1/float64(ss.m))
	st.opts[r].Step(w.params)
	e.record(i, r, st.arName, "allreduce", start)
	if i == len(e.stages)-1 {
		e.lossParts[r] = loss
	}
	return nil
}

// workerCompute is runWorker's schedule loop, returning the worker's loss
// contribution (last stage only).
func (e *Executor) workerCompute(ss *stepState, i, r int) (float64, error) {
	st := e.stages[i]
	w := st.work[r]
	net := st.nets[r]
	ws := w.ws
	last := i == len(e.stages)-1
	myLo, myHi := st.offs[r], st.offs[r+1]
	myWeight := float64(myHi-myLo) / float64(ss.rows)

	var loss float64
	lastOp := len(st.order) - 1
	for oi, o := range st.order {
		if !o.Backward {
			// ---- forward of micro-batch o.M ----
			sh := &w.stashes[o.M]
			var x *tensor.Matrix
			if i == 0 {
				hdr := &w.xHdrs[o.M]
				ss.micros[o.M].X.RowSliceInto(hdr, myLo, myHi)
				x = hdr
				sh.inFree = nil
			} else {
				var in prefetched
				select {
				case in = <-w.pf.ready:
				case <-ss.abort:
					return 0, errAborted
				}
				if in.err != nil {
					return 0, in.err
				}
				if in.m != o.M {
					return 0, fmt.Errorf("train: stage %d expected F%d, got F%d", i, o.M, in.m)
				}
				x, sh.inFree = in.data, in.free
			}
			start := e.now()
			out := net.ForwardWS(ws, x, &sh.run)
			sh.in = x
			if e.opts.Recompute {
				sh.bytes = int64(len(x.Data)) * 8
			} else {
				sh.bytes = sh.run.StashBytes()
			}
			sh.live = true
			w.liveStash++
			w.curBytes += sh.bytes
			if w.liveStash > w.maxStash {
				w.maxStash = w.liveStash
			}
			if w.curBytes > w.maxBytes {
				w.maxBytes = w.curBytes
			}
			if last {
				// Per-slice loss and logits gradient, rescaled from the
				// slice mean to the global micro-batch mean so replicated
				// last stages reproduce the unreplicated gradient exactly.
				g := ws.Get(out.Rows, out.Cols)
				l := nn.SoftmaxCrossEntropyInto(g, out, ss.micros[o.M].Y[myLo:myHi])
				loss += l * myWeight
				g.Scale(myWeight)
				w.pending[o.M] = g
			}
			e.record(i, r, st.fwdNames[o.M], "fwd", start)
			if !last {
				if err := e.bounds[i].sendFwd(r, o.M, out); err != nil {
					return 0, err
				}
			}
			if e.opts.Recompute {
				// Drop the activation state now; keep only the input (the
				// stash the memory model charges) and the output, whose sent
				// views the next stage reads until its backward of o.M.
				sh.out = sh.run.DetachOutput()
				net.DiscardWS(ws, &sh.run)
			}
			continue
		}

		// ---- backward of micro-batch o.M ----
		sh := &w.stashes[o.M]
		if !sh.live {
			return 0, fmt.Errorf("train: stage %d backward B%d without stash", i, o.M)
		}
		var dy *tensor.Matrix
		var dyFree chan *tensor.Matrix
		if last {
			dy = w.pending[o.M]
			w.pending[o.M] = nil
		} else {
			var err error
			dy, dyFree, err = e.bounds[i].recvBwd(r, o.M, &w.bparts, ws, ss.abort)
			if err != nil {
				return 0, err
			}
		}
		start := e.now()
		if e.opts.Recompute {
			// Re-run the forward pass to regenerate activation contexts; the
			// replay is part of the backward span, like the simulator charges
			// re-computation to the backward task.
			net.ForwardWS(ws, sh.in, &sh.run)
		}
		// The schedule's final op is the last backward — the pass after which
		// every parameter gradient has its full accumulation — so only there
		// the per-layer hook reports bucket readiness to the all-reduce group.
		var hook func(int)
		if oi == lastOp {
			hook = w.bwHook
		}
		dx := net.BackwardWSLayers(ws, &sh.run, dy, hook)
		sh.live = false
		w.liveStash--
		w.curBytes -= sh.bytes
		e.record(i, r, st.bwdNames[o.M], "bwd", start)
		if i > 0 {
			if err := e.bounds[i-1].sendBwd(r, o.M, dx); err != nil {
				return 0, err
			}
		}
		// Release this micro-batch's buffers: the gradients, the forward
		// input (back to its transfer ring when it was assembled), and in
		// recompute mode the detached output.
		if dx != dy {
			ws.Put(dx)
		}
		if dyFree != nil {
			transport.Recycle(dyFree, dy)
		} else {
			ws.Put(dy)
		}
		if sh.inFree != nil {
			transport.Recycle(sh.inFree, sh.in)
			sh.inFree = nil
		}
		if sh.out != nil {
			ws.Put(sh.out)
			sh.out = nil
		}
		sh.in = nil
	}
	return loss, nil
}

// VerifyOrder checks the sim-vs-real contract for one executed step: for
// every stage of the plan, each device's real fwd/bwd/allreduce span
// sequence must equal the simulated schedule's sequence on that stage's
// executor resource. simRes and execRes must come from the same plan, policy,
// re-computation setting and micro-batch count; nil is returned when every
// device matches.
func VerifyOrder(p *core.Plan, simRes *schedule.Result, execRes *ExecResult) error {
	if execRes == nil || execRes.Trace == nil {
		return fmt.Errorf("train: no real trace to verify (NoTrace set?)")
	}
	if simRes == nil || simRes.Sim == nil {
		return fmt.Errorf("train: no simulated schedule to verify against")
	}
	for i, st := range p.Stages {
		want := spanSequence(simRes.Sim, simRes.StageResource(i))
		for _, d := range st.Devices {
			res := execRes.Trace.ResourceIndex(deviceResource(i, int(d)))
			if res < 0 {
				return fmt.Errorf("train: stage %d device %d missing from real trace", i, d)
			}
			got := spanSequence(execRes.Trace, res)
			if len(got) != len(want) {
				return fmt.Errorf("train: stage %d device %d executed %d events, simulator scheduled %d",
					i, d, len(got), len(want))
			}
			for j := range want {
				if got[j] != want[j] {
					return fmt.Errorf("train: stage %d device %d event %d: real %q vs simulated %q",
						i, d, j, got[j], want[j])
				}
			}
		}
	}
	return nil
}

// spanSequence extracts one resource's fwd/bwd/allreduce span names in
// execution order.
func spanSequence(r *sim.Result, res int) []string {
	var out []string
	for _, s := range r.Spans {
		if s.Resource != res {
			continue
		}
		switch s.Kind {
		case "fwd", "bwd", "allreduce":
			out = append(out, s.Name)
		}
	}
	return out
}

// setGradVector scatters a flat vector back into the gradient tensors.
func setGradVector(params []nn.Param, v []float64) {
	at := 0
	for _, p := range params {
		copy(p.G.Data, v[at:at+len(p.G.Data)])
		at += len(p.G.Data)
	}
}

// flattenParamGrads flattens the gradients of params[pLo:pHi] — one
// bucket's parameters — into dst, which must have exactly their total
// length.
func flattenParamGrads(dst []float64, params []nn.Param, pLo, pHi int) {
	at := 0
	for _, p := range params[pLo:pHi] {
		copy(dst[at:], p.G.Data)
		at += len(p.G.Data)
	}
	if at != len(dst) {
		panic("train: bucket gradient length mismatch")
	}
}

// bucketGID deterministically encodes the transport group id of stage si's
// bucket b, so every rank hosting the stage opens the same groups. Stage
// counts are far below 1024 and bucket counts are capped at maxBuckets.
func bucketGID(si, b int) int { return (si+1)*1024 + b }
