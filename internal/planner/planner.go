// Package planner implements the DAPPLE Planner (§IV): given a profiled
// model, a cluster topology and a global batch size, it searches stage
// partitions, per-stage replication degrees and topology-aware device
// placements for the plan minimizing synchronous pipeline latency.
//
// The search follows the paper's dynamic program (Eq. 4-5): a state plans the
// first j layers on an allocated device set, with the remaining layers
// forming one final stage on all remaining devices — so every explored state
// is itself a complete candidate plan. Transitions split the suffix stage.
// Device placement is explored through the three policies of §IV-B (Fresh
// First, Append First, Scatter First). Pure data parallelism (a single stage
// on every device) and straight pipelines (one device per stage) fall out of
// the same search; a dedicated balanced partitioner additionally seeds the
// deep straight pipeline.
//
// The search fans out across first-stage split points on a bounded worker
// pool (Options.Workers) and cuts hopeless subtrees with an admissible
// branch-and-bound lower bound: Eq. (2) costs at least (M-1) times the
// largest per-micro-batch F+B of any unit, plus the fixed first stage's own
// forward, backward and all-reduce time (boundOf proves it). See
// parallel.go for why the result is nevertheless identical for every worker
// count. The walk carries the pipeline units of the stages it has fixed, so
// scoring a candidate computes only the units of its new boundary and
// suffix stage.
//
// The search records only what the re-ranking reads (finalists.go): the best
// Options.Finalists hybrid candidates, one per signature, and every
// non-hybrid one. A hybrid candidate that cannot beat the K-th kept one is
// dropped before its signature is built.
//
// The analytic objective of Eq. (1)-(2) drives the search, but — as the paper
// notes — it approximates away non-pivot bubbles. The planner therefore
// re-ranks the best analytic candidates on the discrete-event scheduler
// (package schedule) and picks the plan with the lowest simulated iteration
// time, preferring fewer stages and less replication on near-ties, matching
// the paper's "fewer, slightly uneven stages" insight (§IV-D).
package planner

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"dapple/internal/baselines"
	"dapple/internal/core"
	"dapple/internal/hardware"
	"dapple/internal/model"
	"dapple/internal/schedule"
)

// Plan searches for the latency-optimal hybrid plan.
func Plan(m *model.Model, c hardware.Cluster, opts Options) (*Result, error) {
	return PlanContext(context.Background(), m, c, opts)
}

// PlanContext is Plan under a context: the dynamic-program search and the
// simulator re-ranking both stop promptly with ctx's error once ctx is
// cancelled or past its deadline.
func PlanContext(ctx context.Context, m *model.Model, c hardware.Cluster, opts Options) (*Result, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	opts = opts.Normalize(m.DefaultGBS)
	gbs := opts.GBS

	s := newSearch(ctx, m, c, opts)
	s.run()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res, err := s.finalize()
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, fmt.Errorf("planner: %s on %s (gbs %d): %w", m.Name, c.Name, gbs, err)
	}
	res.Explored = s.explored
	res.Speedup = m.SingleDeviceIterTime(gbs) / res.Latency
	return res, nil
}

// newSearch prepares the search of m on c under normalized options.
func newSearch(ctx context.Context, m *model.Model, c hardware.Cluster, opts Options) *search {
	s := &search{
		ctx: ctx,
		m:   m, c: c, gbs: opts.GBS,
		maxStages: opts.MaxStages,
		memCheck:  !opts.SkipMemCheck,
		slack:     opts.PruneSlack,
		workers:   opts.Workers,
		prune:     !opts.NoPrune,
		best:      math.Inf(1),
		memo:      map[string]float64{},
		cands:     finalistTable{k: opts.Finalists},
	}
	s.precompute()
	return s
}

// candidate is one recorded finalist: a complete plan, its analytic latency,
// its signature (the candidate-table key), and the deterministic sequence
// number of its discovery, which breaks every tie so the chosen plan does
// not depend on map iteration order or on how branch searches were scheduled
// across workers.
type candidate struct {
	plan      *core.Plan
	analytic  float64
	recompute bool
	seq       uint64
	sig       string
}

// betterCand orders candidates by analytic latency, breaking exact ties by
// discovery order — the total order every candidate sort in this package
// uses.
func betterCand(a, b candidate) bool {
	if a.analytic != b.analytic {
		return a.analytic < b.analytic
	}
	return a.seq < b.seq
}

// boundSlack widens the branch-and-bound cut: a subtree is pruned only when
// its latency lower bound exceeds best*boundSlack, keeping near-optimal
// states alive as finalists for the simulator re-ranking even though they
// cannot improve the analytic incumbent.
const boundSlack = 1.05

type search struct {
	ctx       context.Context
	m         *model.Model
	c         hardware.Cluster
	gbs       int
	maxStages int
	memCheck  bool
	slack     float64
	workers   int
	prune     bool

	// Derived once per search (shared read-only with branch searches).
	mb    int       // micro-batch size every candidate plan uses
	mOne  float64   // M-1: steady-phase rounds of the latency model
	sumFB []float64 // sumFB[i]: Σ_{k<i} fwd+bwd time of layer k at mb

	best     float64 // best analytic latency (pruning incumbent)
	explored int
	stopped  bool   // ctx expired; unwind the search without exploring further
	seq      uint64 // sequence number of the next explored candidate
	memo     map[string]float64
	cands    finalistTable

	// Scratch of the depth-first walk, reused for every candidate so that
	// scoring one allocates nothing: path holds the stages of the plan being
	// scored; units holds the pipeline units of the walk's fixed prefix
	// stages (stage i is unit 2i, the boundary after it unit 2i+1); devs and
	// ints are stacks of stage devices and per-server vectors; extend pops
	// units, devs and ints after every transition. key is the memo key or
	// candidate signature being looked up. A candidate entering cands is
	// cloned off the scratch.
	path  []core.Stage
	units []core.Unit
	devs  []hardware.DeviceID
	ints  []int
	key   []byte
	cur   *core.Plan // the plan being scored; see scratchPlan
}

// precompute derives the per-search constants of the lower bound: the
// micro-batch geometry (identical for every candidate plan of this search)
// and the per-layer work prefix sums.
func (s *search) precompute() {
	s.mb = core.ChooseMicroBatch(s.m, s.gbs)
	mCount := s.gbs / s.mb
	if mCount < 1 {
		mCount = 1
	}
	s.mOne = float64(mCount - 1)
	n := s.m.NumLayers()
	s.sumFB = make([]float64, n+1)
	for i := 0; i < n; i++ {
		s.sumFB[i+1] = s.sumFB[i] + s.m.FwdTime(i, s.mb) + s.m.BwdTime(i, s.mb)
	}
}

// cancelled reports (and latches) context expiry so every search loop can
// unwind cheaply without re-querying the context after it first fires.
func (s *search) cancelled() bool {
	if s.stopped {
		return true
	}
	if s.ctx.Err() != nil {
		s.stopped = true
	}
	return s.stopped
}

// alloc tracks GPUs already claimed per server.
type alloc []int

// appendKey appends the memo key of state (j, a) to b.
func (a alloc) appendKey(b []byte, j int) []byte {
	b = strconv.AppendInt(b, int64(j), 10)
	for _, v := range a {
		b = append(b, ';')
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return b
}

func (a alloc) clone() alloc { return append(alloc(nil), a...) }

// push reserves a zeroed n-vector on the scratch stack.
func (s *search) push(n int) alloc {
	s.ints = append(s.ints, make([]int, n)...)
	return s.ints[len(s.ints)-n : len(s.ints) : len(s.ints)]
}

func (s *search) freeTotal(a alloc) int {
	free := 0
	for _, u := range a {
		free += s.c.GPUsPerServer - u
	}
	return free
}

func (s *search) run() {
	used := make(alloc, s.c.Servers)
	// The root candidate is the suffix-only plan: one stage on all devices,
	// i.e. pure data parallelism. The other seeds run before the fan-out
	// too: they are cheap, deterministic, and the analytic best among them
	// is the pruning incumbent every branch search starts from — a tight
	// shared incumbent is what makes the branch-and-bound cut early.
	s.candidate(nil, 0, used)
	s.seedStraight()
	s.seedPipeDream()
	s.seedBalancedHybrids()
	s.fanout(used)
}

// seedBalancedHybrids evaluates one balanced k-stage plan per feasible stage
// count: layers split by the balanced partitioner, devices split evenly,
// placed Fresh First. These are the shapes that usually win on hierarchical
// clusters (e.g. the 8:8 two-stage BERT plan), so seeding them gives the
// branch-and-bound a near-final incumbent before the general search starts.
func (s *search) seedBalancedHybrids() {
	g := s.c.NumDevices()
	n := s.m.NumLayers()
	for k := 2; k <= s.maxStages && k <= g && k <= n; k++ {
		if g%k != 0 {
			continue
		}
		cuts := baselines.BalancedCuts(s.m, k)
		r := g / k
		used := make(alloc, s.c.Servers)
		stages := make([]core.Stage, 0, k)
		lo := 0
		ok := true
		for i := 0; i < k; i++ {
			take := s.freshFirst(used, r)
			if take == nil {
				ok = false
				break
			}
			stages = append(stages, s.materialize(lo, cuts[i], used, take))
			for srv := range take {
				used[srv] += take[srv]
			}
			lo = cuts[i]
		}
		if ok {
			s.evaluate(stages)
		}
	}
}

// seedPipeDream evaluates the PipeDream-style hierarchical plan as a
// candidate: DAPPLE's strategy space is a strict superset of PipeDream's
// (§IV-D2), and the general search's stage-count budget must not exclude the
// deep hierarchical corner on large clusters.
func (s *search) seedPipeDream() {
	p := baselines.PipeDream(s.m, s.c, s.gbs)
	if p != nil {
		s.evaluate(p.Stages)
	}
}

// extend explores states reachable from (prefix covering [0,j), used).
// maxUnit carries the largest per-micro-batch F+B over the prefix's stage
// and communication units, the incremental input of lowerBound.
func (s *search) extend(j int, used alloc, prefix []core.Stage, maxUnit float64) {
	n := s.m.NumLayers()
	free := s.freeTotal(used)
	if len(prefix)+1 >= s.maxStages {
		return
	}
	for j2 := j + 1; j2 < n; j2++ {
		for r := 1; r < free; r++ {
			if s.cancelled() {
				return
			}
			if s.prune {
				// Every placement of an r-replica stage [j, j2) shares these
				// bound terms, the fixed first stage's included; skip the
				// placement enumeration when even they cannot approach the
				// incumbent.
				unit := (s.sumFB[j2] - s.sumFB[j]) / float64(r)
				rem := (s.sumFB[n] - s.sumFB[j2]) / float64(free-r)
				if s.boundOf(math.Max(maxUnit, math.Max(unit, rem))) > s.best*boundSlack {
					continue
				}
			}
			var buf [3]alloc
			mark := len(s.ints)
			takes := s.placements(used, r, &buf)
			units, devs, ints := len(s.units), len(s.devs), len(s.ints)
			for _, take := range takes {
				s.step(j, j2, used, prefix, take, maxUnit)
				s.units, s.devs, s.ints = s.units[:units], s.devs[:devs], s.ints[:ints]
			}
			s.ints = s.ints[:mark]
		}
	}
}

// step processes one transition: cut a stage holding layers [j, j2) with
// placement take out of state (j, used, prefix), record the completed
// candidate it induces, and extend the new state unless a prune rule cuts
// the subtree.
func (s *search) step(j, j2 int, used alloc, prefix []core.Stage, take alloc, maxUnit float64) {
	stage := s.materialize(j, j2, used, take)
	newUsed := s.push(len(used))
	for i := range take {
		newUsed[i] = used[i] + take[i]
	}
	s.path = append(append(s.path[:0], prefix...), stage)
	stages := s.path
	s.pushUnits(s.scratchPlan(stages), len(prefix))
	l := s.candidate(stages, j2, newUsed)
	if math.IsInf(l, 1) {
		return
	}
	if fb := (s.sumFB[j2] - s.sumFB[j]) / float64(stage.Replicas()); fb > maxUnit {
		maxUnit = fb
	}
	if len(prefix) > 0 {
		// The boundary into the new stage is a pipeline unit of any
		// completion too (comm units count toward Eq. 3 pivot selection).
		if b := s.units[len(s.units)-2]; b.F+b.B > maxUnit {
			maxUnit = b.F + b.B
		}
	}
	if s.prune {
		s.key = newUsed.appendKey(s.key[:0], j2)
		if old, ok := s.memo[string(s.key)]; ok && l >= old {
			return
		}
		s.memo[string(s.key)] = l
		if l > s.best*s.slack {
			return
		}
		if s.lowerBound(j2, newUsed, maxUnit) > s.best*boundSlack {
			return
		}
	}
	s.extend(j2, newUsed, stages, maxUnit)
}

// lowerBound returns an admissible lower bound on the analytic latency of
// any completion of state (j, used). The prefix's units are fixed, and
// however the remaining layers are split over the remaining devices, some
// suffix stage carries at least their mean work per device, so every
// completion has a unit with F+B >= max(maxUnit, mean); boundOf turns that
// into a latency bound.
func (s *search) lowerBound(j int, used alloc, maxUnit float64) float64 {
	if free := s.freeTotal(used); free > 0 {
		if mean := (s.sumFB[len(s.sumFB)-1] - s.sumFB[j]) / float64(free); mean > maxUnit {
			maxUnit = mean
		}
	}
	return s.boundOf(maxUnit)
}

// boundOf returns (M-1)·maxFB + F₀ + B₀ + AR₀, a lower bound on Eq. (2) for
// every unit list whose largest F+B is at least maxFB and whose first unit
// is the walk's fixed first stage, units[0]. Let Q be the pivot of Eq. (3)
// and S(u) = (M-1)(F+B)ᵤ:
//
//   - Tw = Σ_{a<=Q} Fₐ, and Te is at least its u = 0 term, AR₀ + Σ_{a<=Q} Bₐ,
//     so Tw + Te >= AR₀ + Σ_{a<=Q} (F+B)ₐ.
//   - A unit u < Q was passed over by the pivot walk after Q was adopted:
//     S(u) <= Ts + Σ_{u<a<Q} (F+B)ₐ. Unit 0 and the units strictly between u
//     and Q are disjoint parts of Σ_{a<=Q}, so Tw + Te >= AR₀ + (F+B)₀ +
//     S(u) - Ts.
//   - A unit u > Q was passed over while some P > u was the pivot:
//     S(u) <= S(P) + Σ_{u<a<P} (F+B)ₐ. Every later adoption beat its pivot
//     plus the units it skipped, among them u and all of (u, P), so
//     Ts = S(Q) > S(P) + Σ_{u<=a<P} (F+B)ₐ >= S(u), while
//     Tw + Te >= AR₀ + (F+B)₀ still holds.
//
// So L = Tw + Ts + Te >= S(u) + F₀ + B₀ + AR₀ for every u, the maximum
// included. The bound is only as exact as the prefix sums behind maxFB,
// which is far inside boundSlack. Counting anything past unit 0 is not
// admissible: a pivot-and-prefix term Σ_{a<=u} (F+B)ₐ fails on units after
// the pivot (TestLowerBoundAdmissible).
func (s *search) boundOf(maxFB float64) float64 {
	u := s.units[0]
	return s.mOne*maxFB + u.F + u.B + u.AR
}

// candidate evaluates the complete plan formed by prefix plus one suffix
// stage holding layers [j, N) on every unused device, records it, and returns
// its analytic latency (Inf when invalid).
func (s *search) candidate(prefix []core.Stage, j int, used alloc) float64 {
	take := s.push(len(used))
	for i, u := range used {
		take[i] = s.c.GPUsPerServer - u
	}
	suffix := s.materialize(j, s.m.NumLayers(), used, take)
	s.path = append(append(s.path[:0], prefix...), suffix)
	return s.evaluate(s.path)
}

// scratchPlan wraps a stage list in this search's model, cluster and batch
// geometry. The plan is the search's own (handed on between branches like
// the other walk scratch) and valid until the next call, so the cluster is
// copied into it once, not once per candidate.
func (s *search) scratchPlan(stages []core.Stage) *core.Plan {
	if s.cur == nil {
		s.cur = &core.Plan{Model: s.m, Cluster: s.c, GBS: s.gbs, MicroBatch: s.mb}
	}
	s.cur.Stages = stages
	return s.cur
}

// pushUnits pushes the pipeline units of stage i of p, the boundary into it
// and then the stage itself, onto the unit stack.
func (s *search) pushUnits(p *core.Plan, i int) {
	if i > 0 {
		s.units = append(s.units, p.BoundaryUnit(i-1))
	}
	s.units = append(s.units, p.StageUnit(i))
}

// evaluate scores a complete stage list, recording it as a finalist when it
// fits memory (directly or with re-computation) and the candidate table
// keeps it. The unit stack holds the units of the list's leading stages
// that the walk has fixed; evaluate scores the rest and pops them again. The
// stages may be scratch: a recorded finalist gets its own copy.
func (s *search) evaluate(stages []core.Stage) float64 {
	p := s.scratchPlan(stages)
	if p.Validate() != nil {
		return math.Inf(1)
	}
	s.explored++
	mark := len(s.units)
	for i := (mark + 1) / 2; i < len(stages); i++ {
		s.pushUnits(p, i)
	}
	l := core.PipelineLatency(s.units, p.M()).Latency()
	s.units = s.units[:mark]
	if l < s.best {
		s.best = l
	}
	c := candidate{analytic: l, seq: s.seq}
	s.seq++
	hybrid := p.Kind() == core.KindHybrid
	if hybrid && !s.cands.admits(c) {
		return l
	}

	if s.memCheck {
		switch {
		case FitsMemory(p, false):
		case FitsMemory(p, true):
			c.recompute = true
		default:
			return l // prunable but not a feasible finalist
		}
	}
	s.key = s.signature(s.key[:0], stages)
	if old, ok := s.cands.lookup(hybrid, s.key); ok && !betterCand(c, old) {
		return l
	}
	q := *p
	q.Stages = slices.Clone(stages)
	devs := make([]hardware.DeviceID, 0, s.c.NumDevices())
	for i, st := range stages {
		devs = append(devs, st.Devices...)
		q.Stages[i].Devices = devs[len(devs)-len(st.Devices) : len(devs) : len(devs)]
	}
	c.plan = &q
	c.sig = string(s.key)
	s.cands.put(c, hybrid)
	return l
}

// signature appends the candidate-table key of a stage list to b: the layers
// of each stage, then which servers each stage occupies with how many
// devices, e.g. "9:7|0x8/1x8/". The device counts imply the replication
// degrees, so equal signatures mean equal split, replication and placement.
func (s *search) signature(b []byte, stages []core.Stage) []byte {
	for i, st := range stages {
		if i > 0 {
			b = append(b, ':')
		}
		b = strconv.AppendInt(b, int64(st.Layers()), 10)
	}
	b = append(b, '|')
	cnt := s.push(s.c.Servers)
	per := s.c.GPUsPerServer // s.c.Server(d) in the loop would copy s.c per device
	for _, st := range stages {
		for _, d := range st.Devices {
			cnt[int(d)/per]++
		}
		for srv, k := range cnt {
			if k > 0 {
				b = strconv.AppendInt(b, int64(srv), 10)
				b = append(b, 'x')
				b = strconv.AppendInt(b, int64(k), 10)
				cnt[srv] = 0
			}
		}
		b = append(b, '/')
	}
	return b
}

// finalists returns the candidates finalize simulates, best first: the best
// Finalists candidates by betterCand, then every non-hybrid one beyond them.
// The reference corners always get a simulator hearing: pure data
// parallelism and the deepest straight pipeline may rank poorly analytically
// yet win once real bubbles are accounted.
func (s *search) finalists() []candidate {
	list := s.cands.all()
	sort.Slice(list, func(i, j int) bool { return betterCand(list[i], list[j]) })
	if limit := s.cands.k; len(list) > limit {
		kept := list[:limit:limit]
		for _, c := range list[limit:] {
			if c.plan.Kind() != core.KindHybrid {
				kept = append(kept, c)
			}
		}
		list = kept
	}
	return list
}

// finalize re-ranks the analytic finalists on the discrete-event scheduler.
// Each finalist is scored without a timeline (schedule.Score: no spans, no
// names, no memory traces), on a graph builder from schedule's free list,
// since the ranking reads only iteration time and OOM. Near-ties (within
// 2.5 %) resolve toward fewer stages, then less replication — the paper's
// preference for simple plans.
func (s *search) finalize() (*Result, error) {
	list := s.finalists()
	if len(list) == 0 {
		return nil, fmt.Errorf("no feasible plan")
	}

	// Re-ranking runs policy A uniformly — the paper's planner selects
	// partitions independently of the warmup policy; PB is recommended for
	// the chosen plan afterwards when its ACR warrants it (§V-C). The K
	// finalist simulations are independent, so they fan out over the same
	// worker budget as the search (Options.Workers); outcomes land in a
	// per-finalist slot and merge below in list order, so the chosen plan is
	// identical for every worker count and goroutine interleaving.
	type simOut struct {
		res *schedule.Result
		err error
	}
	outs := make([]simOut, len(list))
	workers := s.workers
	if workers > len(list) {
		workers = len(list)
	}
	if workers < 1 {
		workers = 1
	}
	next := int64(-1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= len(list) || s.ctx.Err() != nil {
					return
				}
				r, err := schedule.Score(s.ctx, list[i].plan, schedule.Options{
					Policy:    schedule.DapplePA,
					Recompute: list[i].recompute,
				})
				outs[i] = simOut{r, err}
			}
		}()
	}
	wg.Wait()

	type ranked struct {
		candidate
		sim    float64
		policy schedule.Policy
	}
	var rs []ranked
	for i, c := range list {
		r, err := outs[i].res, outs[i].err
		if err != nil || r == nil {
			if s.ctx.Err() != nil {
				return nil, s.ctx.Err()
			}
			continue
		}
		if s.memCheck && r.OOM {
			continue
		}
		rs = append(rs, ranked{c, r.IterTime, RecommendPolicy(c.plan)})
	}
	if len(rs) == 0 {
		return nil, fmt.Errorf("no feasible plan")
	}
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].sim != rs[j].sim {
			return rs[i].sim < rs[j].sim
		}
		return rs[i].seq < rs[j].seq
	})
	bestSim := rs[0].sim
	pick := rs[0]
	for _, r := range rs[1:] {
		if r.sim > bestSim*1.025 {
			continue
		}
		if simpler(r.plan, pick.plan) {
			pick = r
		}
	}
	return &Result{
		Strategy:       "dapple",
		Plan:           pick.plan,
		Latency:        pick.sim,
		Analytic:       pick.analytic,
		NeedsRecompute: pick.recompute,
		Policy:         pick.policy,
	}, nil
}

// simpler prefers fewer stages, then fewer total replicas.
func simpler(a, b *core.Plan) bool {
	if len(a.Stages) != len(b.Stages) {
		return len(a.Stages) < len(b.Stages)
	}
	ra, rb := 0, 0
	for _, s := range a.Stages {
		ra += s.Replicas()
	}
	for _, s := range b.Stages {
		rb += s.Replicas()
	}
	return ra < rb
}

// seedStraight evaluates the straight pipeline: one stage per device,
// balanced by the classic linear-partition DP over layer compute time
// (baselines.StraightPipeline). The general search caps stage count, so the
// deep no-replication corner the paper's Table V reports for slow networks
// is seeded explicitly.
func (s *search) seedStraight() {
	if s.c.NumDevices() < 2 {
		return
	}
	if p := baselines.StraightPipeline(s.m, s.c, s.gbs); p != nil {
		s.evaluate(p.Stages)
	}
}

// materialize turns a per-server take vector into a Stage, assigning the
// lowest free device IDs within each server. The devices live on the
// scratch stack.
func (s *search) materialize(lo, hi int, used, take alloc) core.Stage {
	mark := len(s.devs)
	for srv, k := range take {
		base := srv * s.c.GPUsPerServer
		for i := 0; i < k; i++ {
			s.devs = append(s.devs, hardware.DeviceID(base+used[srv]+i))
		}
	}
	return core.Stage{Lo: lo, Hi: hi, Devices: s.devs[mark:len(s.devs):len(s.devs)]}
}
