// Package train is the real concurrent training runtime. Its one runtime,
// Executor, runs a planner core.Plan on genuine gradient math (packages
// tensor, nn): goroutines are devices, channel links or TCP connections are
// interconnects, and replicated stages synchronize gradients with bucketed
// ring or hierarchical all-reduce. Coordinator and Worker drive executors in
// worker processes as a fault-tolerant, elastic session. SequentialStep is
// the single-device oracle every executed schedule must match, which is how
// this reproduction proves the paper's claim that DAPPLE scheduling yields
// gradients equivalent to sequential execution.
package train

import (
	"sync"
	"time"

	"dapple/internal/hardware"
	"dapple/internal/nn"
	"dapple/internal/transport"
)

// serverGroups maps a replica group's devices onto the cluster topology:
// the replica indices grouped by hosting server, in replica order. It
// returns nil unless the group both spans servers and co-locates at least
// two replicas on some server — the exact condition under which the paper's
// hierarchical all-reduce (§III) beats a flat ring, and the degenerate
// cases (single server, or one replica per server) where the hierarchy
// collapses to the flat algorithm anyway.
func serverGroups(c hardware.Cluster, devs []hardware.DeviceID) [][]int {
	if c.GPUsPerServer <= 0 {
		return nil
	}
	var groups [][]int
	bySrv := make(map[int]int)
	maxLen := 0
	for r, d := range devs {
		srv := c.Server(d)
		gi, ok := bySrv[srv]
		if !ok {
			gi = len(groups)
			bySrv[srv] = gi
			groups = append(groups, nil)
		}
		groups[gi] = append(groups[gi], r)
		if len(groups[gi]) > maxLen {
			maxLen = len(groups[gi])
		}
	}
	if len(groups) < 2 || maxLen < 2 {
		return nil
	}
	return groups
}

// arGroup synchronizes one stage's replica gradients at iteration end.
// Every locally hosted replica worker reports to the group exactly once per
// step — arrive with its flattened gradients on success, abandon on any
// failure — and the last local report decides the stage's fate atomically:
// if all arrived, the last one runs the collective and commits; if any
// replica abandoned, nobody local commits. Because the decision is taken
// once, with complete information, an aborted step can never apply a weight
// update on some local replicas but not others. (Across worker processes
// the commit is fail-stop instead: a step aborted mid-exchange ends the
// session, so torn cross-process commits are never trained on.) Waiters
// block on done alone (no abort select): every peer's error path leads to
// abandon, so done always closes. The group is reset — not reallocated —
// every step.
//
// The server groups of the collective are chosen once from the plan's
// topology: one group — a flat ring — when the replicas sit on one server
// (or one per server, where the hierarchy degenerates); one group per server
// — the paper §III hierarchical algorithm — when the group spans servers
// with co-located replicas; and for stages spanning worker processes, one
// group of the local replicas whose lead is exchanged across processes
// (transport.Group), which is the same hierarchy with the process boundary
// as the server boundary.
type arGroup struct {
	mu      sync.Mutex
	bufs    [][]float64
	arrived int
	failed  bool
	commit  bool
	done    chan struct{}

	groups [][]int         // local replica indices per server; nil: no collective
	coll   *transport.Ring // monolithic collective; nil when bucketed or none
	algo   string

	// Bucketed backward-time overlap state (empty in monolithic mode or when
	// the stage needs no collective). Buckets are layer-aligned sub-ranges of
	// the flattened gradient, each with its own collective instance; because
	// every collective accumulates in canonical participant order per
	// element, the concatenation of per-bucket sums is bit-identical to one
	// whole-vector reduction. Bucket collectives run on a per-step comm
	// goroutine (runComm) in arrival order, overlapping the replicas' still-
	// running backward compute; workers block only at the step-end waitBuckets.
	buckets     []arBucket
	layerBucket []int         // stage-local layer -> bucket whose range starts there, else -1
	reduceQ     chan int      // completed-bucket indices, cap len(buckets)
	commDone    chan struct{} // closed by runComm after every bucket resolved
	commNanos   int64         // collective busy time this step (comm goroutine only)
}

// bucketSpec is one layer-aligned gradient bucket: stage-local layers
// [LayerLo, LayerHi) whose parameters flatten to [Off, End) of the stage's
// gradient vector, parameter indices [PLo, PHi).
type bucketSpec struct {
	LayerLo, LayerHi int
	Off, End         int
	PLo, PHi         int
}

// arBucket is the per-step barrier-and-collective state of one bucket.
type arBucket struct {
	spec bucketSpec

	mu      sync.Mutex
	bufs    [][]float64 // per local replica: its gradBuf[Off:End] sub-slice
	seen    []bool      // per local replica: reported (arrive or abandon)
	arrived int
	failed  bool
	commit  bool // written by runComm before close(commDone), read after it

	coll *transport.Ring
}

// newARGroup returns a reusable barrier for n locally hosted replicas of
// size-element gradient vectors and picks its server groups: devs are the
// local replicas' devices (placed by the cluster topology), spansProcs
// reports that the stage's replica group spans worker processes. The
// caller then attaches the collective with open (monolithic) or initBuckets.
func newARGroup(n, size int, c hardware.Cluster, devs []hardware.DeviceID, spansProcs bool) *arGroup {
	g := &arGroup{bufs: make([][]float64, n), done: make(chan struct{}), algo: "none"}
	switch {
	case size == 0:
		// Parameter-free stage: nothing to sum, locally or remotely.
	case spansProcs:
		g.groups, g.algo = oneGroup(n), "hierarchical"
	case n > 1:
		if g.groups = serverGroups(c, devs); g.groups != nil {
			g.algo = "hierarchical"
		} else {
			g.groups, g.algo = oneGroup(n), "ring"
		}
	}
	return g
}

// oneGroup is the single server group of n replicas, in replica order.
func oneGroup(n int) [][]int {
	g := make([]int, n)
	for i := range g {
		g[i] = i
	}
	return [][]int{g}
}

// open attaches the monolithic collective; dist is the stage's cross-process
// exchange group, nil when the stage is local to this process.
func (g *arGroup) open(dist transport.Group) {
	if g.groups != nil {
		g.coll = transport.NewHier(g.groups, dist)
	}
}

// defaultBucketBytes is the target flattened size of one overlap bucket when
// ExecOptions.BucketBytes is zero — small enough that several buckets exist
// even on modest stages (so tail-layer gradients start synchronizing while
// head layers still compute), large enough to amortize per-bucket collective
// setup.
const defaultBucketBytes = 16 << 10

// maxBuckets bounds the per-stage bucket count so huge stages with tiny
// BucketBytes settings cannot explode the number of collective instances
// (and, across worker processes, transport groups).
const maxBuckets = 64

// bucketLayout partitions a stage network's gradient vector into layer-
// aligned buckets of roughly bucketBytes each, built from the tail (where
// backward completes first) toward the head so the early-completing layers
// form full buckets. Parameter-free layers ride along with their neighbor
// toward the tail. Returns nil for a parameter-free stage. The specs are
// ordered by ascending layer, so spec 0 is the head bucket — the last to
// complete during backward.
func bucketLayout(net *nn.Network, bucketBytes int) []bucketSpec {
	if bucketBytes <= 0 {
		bucketBytes = defaultBucketBytes
	}
	nl := len(net.Layers)
	layerLen := make([]int, nl)
	layerNP := make([]int, nl)
	total := 0
	for i, l := range net.Layers {
		ps := l.Params()
		layerNP[i] = len(ps)
		for _, p := range ps {
			layerLen[i] += len(p.G.Data)
		}
		total += layerLen[i]
	}
	if total == 0 {
		return nil
	}
	target := bucketBytes / 8
	if t := (total + maxBuckets - 1) / maxBuckets; t > target {
		target = t
	}
	// Close layer ranges from the tail whenever the running size reaches the
	// target; the head remainder becomes the final bucket (merged into its
	// tail-ward neighbor when parameter-free).
	var cuts []int // bucket lower layer bounds, tail-first
	acc := 0
	for i := nl - 1; i >= 0; i-- {
		acc += layerLen[i]
		if acc >= target && i > 0 {
			cuts = append(cuts, i)
			acc = 0
		}
	}
	if acc == 0 && len(cuts) > 0 {
		cuts = cuts[:len(cuts)-1] // head layers are parameter-free: merge
	}
	// Convert to ascending specs with flat and parameter offsets.
	specs := make([]bucketSpec, 0, len(cuts)+1)
	lo := 0
	for b := len(cuts); b >= 0; b-- {
		hi := nl
		if b > 0 {
			hi = cuts[b-1]
		}
		specs = append(specs, bucketSpec{LayerLo: lo, LayerHi: hi})
		lo = hi
	}
	off, pi := 0, 0
	for s := range specs {
		sp := &specs[s]
		sp.Off, sp.PLo = off, pi
		for i := sp.LayerLo; i < sp.LayerHi; i++ {
			off += layerLen[i]
			pi += layerNP[i]
		}
		sp.End, sp.PHi = off, pi
	}
	return specs
}

// initBuckets arms the group's backward-time overlap path: one barrier and
// collective per spec over the group's server groups (openDist non-nil when
// the stage spans worker processes; it opens the cross-process exchange
// group of one bucket). nlayers is the stage's layer count. Must be called
// once, right after newARGroup, before any step runs.
func (g *arGroup) initBuckets(nlayers int, specs []bucketSpec, openDist func(b, size int) (transport.Group, error)) error {
	n := len(g.bufs)
	g.buckets = make([]arBucket, len(specs))
	g.layerBucket = make([]int, nlayers)
	for i := range g.layerBucket {
		g.layerBucket[i] = -1
	}
	g.reduceQ = make(chan int, len(specs))
	g.commDone = make(chan struct{})
	for b, sp := range specs {
		bk := &g.buckets[b]
		bk.spec = sp
		bk.bufs = make([][]float64, n)
		bk.seen = make([]bool, n)
		g.layerBucket[sp.LayerLo] = b
		if g.groups == nil {
			continue
		}
		var dist transport.Group
		if openDist != nil {
			var err error
			if dist, err = openDist(b, sp.End-sp.Off); err != nil {
				return err
			}
		}
		bk.coll = transport.NewHier(g.groups, dist)
	}
	return nil
}

// bucketed reports whether the group synchronizes through the overlap path.
func (g *arGroup) bucketed() bool { return len(g.buckets) > 0 }

// algorithm names the collective the group selected ("none", "ring" or
// "hierarchical").
func (g *arGroup) algorithm() string { return g.algo }

// reset re-arms the barrier for the next step.
func (g *arGroup) reset() {
	g.arrived = 0
	g.failed = false
	g.commit = false
	g.done = make(chan struct{})
	for i := range g.bufs {
		g.bufs[i] = nil
	}
	g.commNanos = 0
	if g.bucketed() {
		g.commDone = make(chan struct{})
	}
	for b := range g.buckets {
		bk := &g.buckets[b]
		bk.arrived = 0
		bk.failed = false
		bk.commit = false
		for i := range bk.bufs {
			bk.bufs[i] = nil
			bk.seen[i] = false
		}
	}
}

// abandon is failed local replica r's report: it counts as the replica's
// arrival and vetoes the stage's commit, releasing any waiting peers. In
// bucketed mode the veto lands on every bucket the replica has not yet
// reported — including the head bucket it withholds until the sync point —
// so peers' waitBuckets can never see a full commit once any local replica
// failed.
func (g *arGroup) abandon(r int) {
	if g.bucketed() {
		for b := range g.buckets {
			bk := &g.buckets[b]
			bk.mu.Lock()
			enq := false
			if !bk.seen[r] {
				bk.seen[r] = true
				bk.arrived++
				bk.failed = true
				enq = bk.arrived == len(bk.bufs)
			}
			bk.mu.Unlock()
			if enq {
				g.reduceQ <- b
			}
		}
		return
	}
	g.mu.Lock()
	g.arrived++
	g.failed = true
	last := g.arrived == len(g.bufs)
	done := g.done
	g.mu.Unlock()
	if last {
		close(done)
	}
}

// arriveBucket contributes local replica r's flattened sub-vector for bucket
// b without blocking: the last local report hands the bucket to the comm
// goroutine, which runs its collective while replicas keep computing.
func (g *arGroup) arriveBucket(r, b int, buf []float64) {
	bk := &g.buckets[b]
	bk.mu.Lock()
	if bk.seen[r] { // an abandoned replica raced ahead of us; keep the veto
		bk.mu.Unlock()
		return
	}
	bk.bufs[r] = buf
	bk.seen[r] = true
	bk.arrived++
	last := bk.arrived == len(bk.bufs)
	bk.mu.Unlock()
	if last {
		g.reduceQ <- b
	}
}

// waitBuckets blocks until every bucket's collective resolved, reporting
// whether ALL buckets committed — the bucketed form of arrive's return
// value. All local replicas observe the same answer, so weight updates stay
// all-or-nothing per stage.
func (g *arGroup) waitBuckets() bool {
	<-g.commDone
	ok := true
	for b := range g.buckets {
		if !g.buckets[b].commit {
			ok = false
		}
	}
	return ok
}

// runComm is the per-step collective driver of a bucketed group: it runs
// each completed bucket's collective in arrival order — concurrently with
// the replicas' remaining backward compute — and resolves the bucket's
// commit. It processes every bucket exactly once per step (abandon
// completes the buckets of failed replicas), so it always terminates, the
// step's WaitGroup can join it, and the single commDone close releases
// every replica blocked in waitBuckets.
func (g *arGroup) runComm(abort <-chan struct{}) {
	for range g.buckets {
		b := <-g.reduceQ
		bk := &g.buckets[b]
		bk.mu.Lock()
		failed := bk.failed
		bk.mu.Unlock()
		if !failed {
			t0 := time.Now()
			if reduceBufs(bk.coll, bk.bufs, abort) {
				bk.commit = true
			}
			g.commNanos += time.Since(t0).Nanoseconds()
		}
	}
	close(g.commDone)
}

// arrive contributes local replica r's buf and blocks until every local
// replica has reported, returning whether the stage committed. On commit,
// every replica's buf holds the bit-identical all-reduced sum (across
// worker processes too, when the stage spans them).
func (g *arGroup) arrive(r int, buf []float64, abort <-chan struct{}) bool {
	n := len(g.bufs)
	if n == 1 && g.coll == nil {
		return true
	}
	g.mu.Lock()
	g.bufs[r] = buf
	g.arrived++
	last := g.arrived == n
	failed := g.failed
	done := g.done
	g.mu.Unlock()
	if last {
		if !failed {
			t0 := time.Now()
			if reduceBufs(g.coll, g.bufs, abort) {
				g.commit = true // written before close(done), read after it
			}
			g.commNanos = time.Since(t0).Nanoseconds()
		}
		close(done)
	} else {
		<-done
	}
	return g.commit
}

// reduceBufs runs one collective over the arrived buffers — the shared body
// of the monolithic and per-bucket paths — reporting whether it completed. A
// nil coll (nothing to sum) completes trivially. A failed cross-process
// exchange leaves partial sums in the replicas' gradient buffers; the step
// then aborts without applying them, and the next step overwrites them.
func reduceBufs(coll *transport.Ring, bufs [][]float64, abort <-chan struct{}) bool {
	return coll == nil || coll.AllReduceAbort(bufs, abort) == nil
}
