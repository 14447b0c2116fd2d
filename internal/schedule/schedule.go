// Package schedule builds executable task graphs for pipelined training
// iterations and runs them on the discrete-event simulator: GPipe's
// flush-style schedule and DAPPLE's early-backward schedule (§III), both with
// optional activation re-computation, plus byte-accurate device memory
// accounting and OOM detection.
//
// Each pipeline stage's replica group acts as one logical executor whose
// per-micro-batch time is the stage time divided by its replication degree
// (split-concat semantics, Fig. 8(a)); memory is accounted per physical
// device (each replica holds the full stage parameters but only its slice of
// activations).
//
// Every simulation goes through one graph builder. Run, RunContext and
// Score take one from a bounded package-internal free list and rebind it to
// their plan, so a caller simulating many plans (the planner's finalist
// re-ranking) reuses task and dependency buffers across plans. A Sweeper
// keeps one builder bound to one plan for a Policy × M × recompute sweep.
// Tasks carry compact sim.Tags, not names: Run, RunContext and a Sweeper
// record a named timeline, and Score, which the re-rank uses, records none.
package schedule

import (
	"context"
	"fmt"
	"strconv"

	"dapple/internal/core"
	"dapple/internal/sim"
)

// Policy selects the micro-batch scheduling discipline.
type Policy int

const (
	// GPipe injects all M micro-batches forward, then drains backward in
	// reverse order (Fig. 3(a)): activation residency grows O(M).
	GPipe Policy = iota
	// DapplePA is DAPPLE early-backward scheduling with K_i = min(S-i, D)
	// warmup micro-batches on stage i (§V-C policy A).
	DapplePA
	// DapplePB schedules twice the warmup depth, K_i = min(2(S-i)-1, D),
	// for workloads with a notable activation-communication ratio (§V-C
	// policy B).
	DapplePB
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case GPipe:
		return "GPipe"
	case DapplePA:
		return "DAPPLE-PA"
	default:
		return "DAPPLE-PB"
	}
}

// recomputeFwdFraction is the extra compute charged to a backward task when
// activation re-computation is on, as a fraction of the stage's forward time.
// The paper (and the GPipe talk it cites) put the end-to-end cost of
// re-computation near 20% of iteration time, which a 0.6x forward replay
// reproduces for the typical B = 2F ratio.
const recomputeFwdFraction = 0.6

// applyTime is the weight-update time after the gradient all-reduce.
const applyTime = 200e-6

// Options configure one simulated training iteration.
type Options struct {
	Policy    Policy
	Recompute bool

	// M overrides the plan's micro-batch count when > 0 (Table VI varies M
	// at fixed micro-batch size).
	M int

	// MemLimit is the per-device memory budget; 0 means the cluster's
	// device memory. Negative disables memory accounting limits.
	MemLimit int64
}

// Result reports one simulated iteration.
type Result struct {
	Plan     *core.Plan
	Policy   Policy
	M        int
	IterTime float64 // seconds for one global batch
	Samples  int     // samples consumed per iteration

	// AvgPeakMem / MaxPeakMem are bytes across devices, including parameters,
	// optimizer state and workspace.
	AvgPeakMem float64
	MaxPeakMem int64
	PerStage   []StageStats

	OOM      bool
	OOMStage int

	BubbleFraction float64 // idle fraction of compute-stage executors
	Sim            *sim.Result
}

// StageStats summarizes one stage's executor and memory.
type StageStats struct {
	PeakMem     int64 // bytes per device of this stage
	StaticMem   int64
	Utilization float64
	Warmup      int // K_i actually used
}

// Throughput returns samples/second.
func (r *Result) Throughput() float64 {
	if r.IterTime == 0 {
		return 0
	}
	return float64(r.Samples) / r.IterTime
}

// MemTrace returns the memory-over-time curve of stage i's devices; nil for
// a Score result.
func (r *Result) MemTrace(i int) []sim.MemPoint {
	return r.Sim.Trace(i)
}

// StageResource returns the simulator resource index of stage i's executor,
// for timeline inspection.
func (r *Result) StageResource(i int) int { return stageRes(i) }

// Resource indices of a build: it interns resourceName(0..3S-3) in order,
// so stage i's executor is resource 3i and the forward and backward links
// after it are 3i+1 and 3i+2.
func stageRes(i int) int { return 3 * i }
func linkFRes(i int) int { return 3*i + 1 }
func linkBRes(i int) int { return 3*i + 2 }

// resourceName names resource k of a build: "stage<i>", "link<i>.fwd" or
// "link<i>.bwd".
func resourceName(k int) string {
	return [...]string{"stage", "link", "link"}[k%3] + strconv.Itoa(k/3) + [...]string{"", ".fwd", ".bwd"}[k%3]
}

// maxIdleBuilders bounds the free list: one builder per concurrent finalist
// worker on hosts of up to 16 cores. A run finding the list empty makes a
// builder, and one finding it full drops its own.
const maxIdleBuilders = 16

// builders is the free list of Run, RunContext and Score. Unlike a
// sync.Pool, garbage collection (several cycles per plan search) cannot
// empty it. A builder is rebound to each plan it simulates and keeps its
// buffers; nothing a Result holds aliases them.
var builders = make(chan *builder, maxIdleBuilders)

// Run simulates one training iteration of the plan under the given options.
func Run(p *core.Plan, opts Options) (*Result, error) {
	return RunContext(context.Background(), p, opts)
}

// RunContext is Run under a context: the discrete-event execution aborts with
// ctx's error once ctx is cancelled or past its deadline.
func RunContext(ctx context.Context, p *core.Plan, opts Options) (*Result, error) {
	return run(ctx, p, opts, true)
}

// Score is RunContext without a timeline: the Result's Sim holds the
// makespan, busy time and peaks but no Spans and no MemTrace, and every
// other field equals RunContext's. It is for callers that read only
// IterTime, OOM and peaks, such as the planner's finalist re-rank.
func Score(ctx context.Context, p *core.Plan, opts Options) (*Result, error) {
	return run(ctx, p, opts, false)
}

// run simulates p on a builder from the free list.
func run(ctx context.Context, p *core.Plan, opts Options, timeline bool) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	var b *builder
	select {
	case b = <-builders:
	default:
		b = &builder{g: sim.NewGraph()}
	}
	r, err := runBuilder(ctx, b.bind(p), opts, timeline)
	select {
	case builders <- b.bind(nil):
	default:
	}
	return r, err
}

// MustRun is Run for validated plans in examples and benches.
func MustRun(p *core.Plan, opts Options) *Result {
	r, err := Run(p, opts)
	if err != nil {
		panic(err)
	}
	return r
}

// BuildGraph expands one simulated training iteration of the plan into its
// simulator task graph without executing it — the entry point for simulator
// microbenchmarks and timeline tooling that drive the engine directly.
func BuildGraph(p *core.Plan, opts Options) (*sim.Graph, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	b := newBuilder(p)
	m, limit := resolve(p, opts)
	b.prepare(m, opts, limit)
	b.build()
	if err := b.g.Validate(); err != nil {
		return nil, fmt.Errorf("schedule: internal graph error: %w", err)
	}
	return b.g, nil
}

// Sweeper simulates many iterations of one plan on one builder: tasks,
// dependency lists and per-stage tables persist across runs, so a Policy × M
// × recompute sweep allocates per-run results only. Results remain
// byte-identical to Run's. A Sweeper is not safe for concurrent use.
type Sweeper struct {
	b *builder
}

// NewSweeper validates the plan once and returns a Sweeper bound to it.
func NewSweeper(p *core.Plan) (*Sweeper, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Sweeper{b: newBuilder(p)}, nil
}

// MustSweeper is NewSweeper for validated plans in examples and benches.
func MustSweeper(p *core.Plan) *Sweeper {
	s, err := NewSweeper(p)
	if err != nil {
		panic(err)
	}
	return s
}

// Run simulates one iteration of the Sweeper's plan under the given options.
func (s *Sweeper) Run(opts Options) (*Result, error) {
	return s.RunContext(context.Background(), opts)
}

// MustRun is Run for validated plans in examples and benches.
func (s *Sweeper) MustRun(opts Options) *Result {
	r, err := s.Run(opts)
	if err != nil {
		panic(err)
	}
	return r
}

// RunContext is Run under a context.
func (s *Sweeper) RunContext(ctx context.Context, opts Options) (*Result, error) {
	return runBuilder(ctx, s.b, opts, true)
}

// resolve derives the effective micro-batch count and memory limit.
func resolve(p *core.Plan, opts Options) (int, int64) {
	m := p.M()
	if opts.M > 0 {
		m = opts.M
	}
	if m < 1 {
		m = 1
	}
	limit := opts.MemLimit
	if limit == 0 {
		limit = p.Cluster.DeviceMemory
	}
	return m, limit
}

// runBuilder expands one iteration on the (possibly reused) builder, executes
// it, with a timeline or without, and assembles the Result.
func runBuilder(ctx context.Context, b *builder, opts Options, timeline bool) (*Result, error) {
	p := b.p
	m, limit := resolve(p, opts)
	b.prepare(m, opts, limit)
	b.build()
	if err := b.g.Validate(); err != nil {
		return nil, fmt.Errorf("schedule: internal graph error: %w", err)
	}
	var sr *sim.Result
	var err error
	if timeline {
		sr, err = b.g.RunContext(ctx)
	} else {
		sr, err = b.g.Score(ctx)
	}
	if err != nil {
		return nil, err
	}

	res := &Result{
		Plan:     p,
		Policy:   opts.Policy,
		M:        m,
		IterTime: sr.Makespan,
		Samples:  m * p.MicroBatch,
		Sim:      sr,
		OOMStage: -1,
		PerStage: make([]StageStats, 0, len(p.Stages)),
	}
	var memSum float64
	var busy, span float64
	for i := range p.Stages {
		peak := sr.Peak(i)
		st := StageStats{
			PeakMem:     peak,
			StaticMem:   b.static[i],
			Utilization: sr.Utilization(stageRes(i)),
			Warmup:      b.warmup[i],
		}
		res.PerStage = append(res.PerStage, st)
		memSum += float64(peak) * float64(p.Stages[i].Replicas())
		if peak > res.MaxPeakMem {
			res.MaxPeakMem = peak
		}
		if limit > 0 && peak > limit && !res.OOM {
			res.OOM = true
			res.OOMStage = i
		}
		busy += sr.BusyTime[stageRes(i)]
		span += sr.Makespan
	}
	nDev := 0
	for _, s := range p.Stages {
		nDev += s.Replicas()
	}
	res.AvgPeakMem = memSum / float64(nDev)
	if span > 0 {
		res.BubbleFraction = 1 - busy/span
	}
	return res, nil
}

// builder accumulates the task graph for one iteration. It outlives a single
// build: bind points it at a plan, and prepare rewinds the graph and resizes
// the per-stage and per-micro-batch tables without discarding their
// capacity, so neither a sweep of one plan nor a run of many plans
// reallocates them.
type builder struct {
	p     *core.Plan
	m     int
	opts  Options
	limit int64

	g        *sim.Graph
	resNames []string // resourceName(k) for every k a build has interned
	order    []Op     // StageOrder scratch

	// per stage, fixed by the plan
	static []int64 // params + optimizer + workspace, per device
	perMB  []int64 // retained activation bytes per micro-batch per device
	stash  []int64 // boundary stash per micro-batch per device (recompute)

	// per stage, per build
	warmup []int
	fwd    [][]sim.TaskID // [stage][m]
	bwd    [][]sim.TaskID
	commF  [][]sim.TaskID
	commB  [][]sim.TaskID
}

func newBuilder(p *core.Plan) *builder {
	return (&builder{g: sim.NewGraph()}).bind(p)
}

// bind points the builder at plan p (nil releases the last one) and
// computes its per-stage tables.
func (b *builder) bind(p *core.Plan) *builder {
	b.p = p
	if p == nil {
		return b
	}
	s := len(p.Stages)
	b.static = resize(b.static, s)
	b.perMB = resize(b.perMB, s)
	b.stash = resize(b.stash, s)
	b.warmup = resize(b.warmup, s)
	b.fwd = resize(b.fwd, s)
	b.bwd = resize(b.bwd, s)
	b.commF = resize(b.commF, s)
	b.commB = resize(b.commB, s)
	b.stageMemory()
	return b
}

// resize returns xs with length n, reusing its capacity (and the elements
// within it) when possible.
func resize[T any](xs []T, n int) []T {
	if cap(xs) >= n {
		return xs[:n]
	}
	return append(xs[:cap(xs)], make([]T, n-cap(xs))...)
}

// prepare rewinds the builder for one build of m micro-batches: the graph's
// tasks and resources are cleared (buffers kept), the resources interned
// again in stageRes order, and the per-micro-batch ID tables resized.
func (b *builder) prepare(m int, opts Options, limit int64) {
	b.m, b.opts, b.limit = m, opts, limit
	s := len(b.p.Stages)
	for k := len(b.resNames); k < 3*s-2; k++ {
		b.resNames = append(b.resNames, resourceName(k))
	}
	b.g.Reset()
	for _, name := range b.resNames[:3*s-2] {
		b.g.Resource(name)
	}
	for i := 0; i < s; i++ {
		b.fwd[i] = resize(b.fwd[i], m)
		b.bwd[i] = resize(b.bwd[i], m)
		b.commF[i] = resize(b.commF[i], m)
		b.commB[i] = resize(b.commB[i], m)
	}
}

// stageMemory fills static/perMB/stash for every stage. All three depend only
// on the plan, so the builder computes them once.
func (b *builder) stageMemory() {
	p := b.p
	for i, s := range p.Stages {
		params := p.StageParamBytes(i)
		b.static[i] = p.Model.OptimizerStateBytes(params) + p.Model.WorkspaceBytes
		r := int64(s.Replicas())
		b.perMB[i] = p.Model.RangeStoredBytes(s.Lo, s.Hi, p.MicroBatch) / r
		if s.Lo > 0 {
			b.stash[i] = p.Model.OutputBytes(s.Lo-1, p.MicroBatch) / r
		} else {
			// First stage stashes its input micro-batch slice; approximate
			// with the smallest boundary in the model.
			min := p.Model.Layers[0].OutputBytes
			for _, l := range p.Model.Layers {
				if l.OutputBytes < min {
					min = l.OutputBytes
				}
			}
			b.stash[i] = p.Model.OutputBytes(0, p.MicroBatch) / (4 * r)
			if alt := int64(float64(min) * float64(p.MicroBatch) / float64(p.Model.ProfileBatch)); alt < b.stash[i] {
				b.stash[i] = alt
			}
		}
	}
}

// memCap returns D for stage i: how many micro-batches of retained state fit
// the device budget alongside static allocations. Without a positive limit
// every micro-batch fits.
func (b *builder) memCap(i int) int {
	if b.limit <= 0 {
		return b.m
	}
	free := b.limit - b.static[i]
	var per int64
	if b.opts.Recompute {
		per = b.stash[i]
		free -= b.perMB[i] // one micro-batch materializes fully during backward
	} else {
		per = b.perMB[i]
	}
	if per <= 0 {
		return b.m
	}
	d := int(free / per)
	if d < 1 {
		d = 1 // schedule anyway; the run flags OOM
	}
	if d > b.m {
		d = b.m
	}
	return d
}

// computeWarmups fills b.warmup with the policy's per-stage warmup depths.
// Depths must be non-increasing along the pipeline: a later stage holding
// more in-flight micro-batches than its predecessor deadlocks the strict
// interleave (its extra warmup forwards wait on inputs the predecessor will
// only produce after backwards the later stage has not sent yet), so
// memory-capped depths are clamped front to back.
func (b *builder) computeWarmups() {
	for i := range b.p.Stages {
		b.warmup[i] = b.warmupDepth(i)
		if i > 0 && b.warmup[i] > b.warmup[i-1] {
			b.warmup[i] = b.warmup[i-1]
		}
	}
}

// warmupDepth returns K_i for the policy.
func (b *builder) warmupDepth(i int) int {
	s := len(b.p.Stages)
	var k int
	switch b.opts.Policy {
	case GPipe:
		// GPipe injects everything and simply OOMs when it does not fit;
		// it has no adaptive warmup depth.
		return b.m
	case DapplePA:
		k = s - i
	case DapplePB:
		k = 2*(s-i) - 1
	}
	if d := b.memCap(i); k > d {
		k = d
	}
	if k > b.m {
		k = b.m
	}
	if k < 1 {
		k = 1
	}
	return k
}

func (b *builder) build() {
	p := b.p

	// Static allocations present for the whole iteration.
	for i := range p.Stages {
		b.g.Add(sim.Task{
			Tag:      sim.Tag{Kind: sim.Init, Stage: int32(i)},
			Resource: sim.NoResource, MemDevice: i, AllocBytes: b.static[i],
		})
	}

	for i := range p.Stages {
		f := p.StageFwdTime(i)
		bw := p.StageBwdTime(i)
		if b.opts.Recompute {
			bw += recomputeFwdFraction * f
		}
		for m := 0; m < b.m; m++ {
			tag := sim.Tag{Kind: sim.Fwd, Stage: int32(i), MB: int32(m)}
			var fAlloc int64
			if b.opts.Recompute {
				fAlloc = b.stash[i]
			} else {
				fAlloc = b.perMB[i]
			}
			b.fwd[i][m] = b.g.Add(sim.Task{
				Tag:      tag,
				Resource: stageRes(i), Duration: f,
				MemDevice: i, AllocBytes: fAlloc, Priority: m,
			})
			var bAlloc, bFree int64
			if b.opts.Recompute {
				bAlloc = b.perMB[i]
				bFree = b.perMB[i] + b.stash[i]
			} else {
				bFree = b.perMB[i]
			}
			tag.Kind = sim.Bwd
			b.bwd[i][m] = b.g.Add(sim.Task{
				Tag:      tag,
				Resource: stageRes(i), Duration: bw,
				MemDevice: i, AllocBytes: bAlloc, FreeBytes: bFree, Priority: m,
			})
		}
	}

	// Data dependencies: forward chains via activation transfers, backward
	// chains via gradient transfers; links are full duplex (separate forward
	// and backward resources).
	for i := 0; i < len(p.Stages)-1; i++ {
		ct := p.CrossStageTime(i)
		for m := 0; m < b.m; m++ {
			tag := sim.Tag{Kind: sim.CommF, Stage: int32(i), MB: int32(m)}
			b.commF[i][m] = b.g.Add(sim.Task{
				Tag:      tag,
				Resource: linkFRes(i), Duration: ct, Priority: m,
			})
			b.g.AddDep(b.commF[i][m], b.fwd[i][m])
			b.g.AddDep(b.fwd[i+1][m], b.commF[i][m])

			tag.Kind = sim.CommB
			b.commB[i][m] = b.g.Add(sim.Task{
				Tag:      tag,
				Resource: linkBRes(i), Duration: ct, Priority: m,
			})
			b.g.AddDep(b.commB[i][m], b.bwd[i+1][m])
			b.g.AddDep(b.bwd[i][m], b.commB[i][m])
		}
	}

	// Control dependencies: per-stage execution order per policy (§V-C),
	// realized exactly like the TF control edges of Fig. 11.
	b.computeWarmups()
	for i := range p.Stages {
		b.order = appendStageOrder(b.order[:0], b.opts.Policy, b.m, b.warmup[i])
		for j := 1; j < len(b.order); j++ {
			prev, cur := b.order[j-1], b.order[j]
			b.g.AddDep(b.task(i, cur), b.task(i, prev))
		}
	}

	// Gradient sync + weight update per stage at iteration end (Fig. 10).
	for i := range p.Stages {
		ar := b.g.Add(sim.Task{
			Tag:      sim.Tag{Kind: sim.AllReduce, Stage: int32(i)},
			Resource: stageRes(i), Duration: p.StageAllReduceTime(i) + applyTime,
		})
		for m := 0; m < b.m; m++ {
			b.g.AddDep(ar, b.bwd[i][m])
		}
	}
}

// Op is one step of a stage's execution order: the forward (Backward false)
// or backward (Backward true) pass of micro-batch M. The simulator's schedule
// builder and the real plan-driven executor (internal/train) both consume the
// same Op sequences, which is what makes their per-stage event orders
// comparable by construction.
type Op struct {
	// Backward selects the backward pass; false is the forward pass.
	Backward bool
	// M is the micro-batch index.
	M int
}

func (b *builder) task(stage int, o Op) sim.TaskID {
	if o.Backward {
		return b.bwd[stage][o.M]
	}
	return b.fwd[stage][o.M]
}

// StageOrder lists a stage's FW/BW sequence for m micro-batches under the
// policy: GPipe runs all forwards then backwards in reverse; DAPPLE runs k
// warmup forwards then strictly interleaves one backward with one forward
// (Fig. 3(b)). k is ignored for GPipe and clamped to [1, m] otherwise.
func StageOrder(p Policy, m, k int) []Op {
	return appendStageOrder(nil, p, m, k)
}

// appendStageOrder appends StageOrder(p, m, k) to order.
func appendStageOrder(order []Op, p Policy, m, k int) []Op {
	if p == GPipe {
		for i := 0; i < m; i++ {
			order = append(order, Op{false, i})
		}
		for i := m - 1; i >= 0; i-- {
			order = append(order, Op{true, i})
		}
		return order
	}
	if k > m {
		k = m
	}
	if k < 1 {
		k = 1
	}
	for i := 0; i < k; i++ {
		order = append(order, Op{false, i})
	}
	next := k
	for i := 0; i < m; i++ {
		order = append(order, Op{true, i})
		if next < m {
			order = append(order, Op{false, next})
			next++
		}
	}
	return order
}

// WarmupDepths returns the per-stage warmup depth K_i one iteration of p
// under opts uses: the policy's depth, capped by how many micro-batches of
// retained state fit device memory, then clamped front to back so depths are
// non-increasing along the pipeline (the deadlock-freedom condition of the
// strict interleave). The real plan-driven executor derives its warmup from
// this same code path, so real and simulated schedules agree exactly.
func WarmupDepths(p *core.Plan, opts Options) ([]int, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	b := newBuilder(p)
	b.opts = opts
	b.m, b.limit = resolve(p, opts)
	b.computeWarmups()
	out := make([]int, len(b.warmup))
	copy(out, b.warmup)
	return out, nil
}
