// Package train is the real concurrent training runtime. Its one runtime,
// Executor, runs a planner core.Plan on genuine gradient math (packages
// tensor, nn): goroutines are devices, channel links or TCP connections are
// interconnects, and replicated stages synchronize gradients with bucketed
// ring or hierarchical all-reduce. Each device goroutine runs its stage's
// schedule order and receives its inputs inline at the op that consumes
// them, so no received input waits outside its micro-batch's stash. Coordinator and Worker drive executors in
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

// arGroup synchronizes one replicated stage's gradients, bucket by bucket,
// during backward. Each hosted replica's gradient tensors live in one
// contiguous vector in Params() order (flatGrads), cut into layer-aligned
// buckets, each with its own barrier and collective instance over the
// replicas' views of its span: backward accumulates into the very memory the
// collective sums in place, and the optimizer reads the sum where it landed.
// Every locally hosted replica worker reports each bucket exactly once per
// step — arriveBucket as the bucket's layers finish their final backward,
// abandon on any failure — and the last local report of a bucket hands it to
// the step's comm goroutine (runComm), which runs the bucket's collective in
// arrival order while replicas keep computing. Because every collective
// accumulates in canonical participant order per element, the concatenation
// of per-bucket sums is bit-identical to one whole-vector reduction: the
// one-bucket layout is the oracle every other layout is pinned against.
//
// Each replica withholds the head bucket (the last to complete during
// backward) until its whole compute phase is done, so the head bucket is the
// stage's all-or-nothing gate: waitBuckets commits only if every bucket did,
// and every local replica observes the same answer, so an aborted step can
// never apply a weight update on some local replicas but not others. (Across
// worker processes a step aborted mid-exchange is torn instead: the
// coordinator ends the session or restores its last snapshot, so torn
// cross-process commits are never trained on.) The group is reset — not
// reallocated — every step.
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
	n      int     // locally hosted replicas
	groups [][]int // local replica indices per server
	algo   string  // "ring" or "hierarchical"

	buckets     []arBucket
	layerBucket []int         // stage-local layer -> bucket whose range starts there, else -1
	reduceQ     chan int      // completed-bucket indices, cap len(buckets)
	commDone    chan struct{} // closed by runComm after every bucket resolved
	commNanos   int64         // collective busy time this step (comm goroutine only)
}

// bucketSpec is one layer-aligned gradient bucket: stage-local layers
// [LayerLo, LayerHi) whose parameter gradients occupy [Off, End) of a
// replica's gradient vector.
type bucketSpec struct {
	LayerLo, LayerHi int
	Off, End         int
}

// arBucket is the per-step barrier-and-collective state of one bucket.
type arBucket struct {
	mu      sync.Mutex
	bufs    [][]float64 // per local replica: its gradient vector's [Off:End] view, fixed
	seen    []bool      // per local replica: reported (arrive or abandon)
	arrived int
	failed  bool
	commit  bool // written by runComm before close(commDone), read after it

	coll *transport.Ring
}

// newARGroup returns the gradient-sync group of a replicated stage with
// parameters, hosting n of its replicas here, and picks its server groups:
// devs are the local replicas' devices (placed by the cluster topology),
// spansProcs reports that the stage's replica group spans worker processes.
// The caller then arms the buckets with initBuckets.
func newARGroup(n int, c hardware.Cluster, devs []hardware.DeviceID, spansProcs bool) *arGroup {
	g := &arGroup{n: n, algo: "hierarchical"}
	if spansProcs {
		g.groups = oneGroup(n)
	} else if g.groups = serverGroups(c, devs); g.groups == nil {
		g.groups, g.algo = oneGroup(n), "ring"
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

// defaultBucketBytes is the target size of one gradient bucket —
// small enough that several buckets exist even on modest stages (so
// tail-layer gradients start synchronizing while head layers still
// compute), large enough to amortize per-bucket collective setup.
const defaultBucketBytes = 16 << 10

// maxBuckets bounds the per-stage bucket count so huge stages with tiny
// bucket sizes cannot explode the number of collective instances (and,
// across worker processes, transport groups).
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
	total := 0
	for i, l := range net.Layers {
		for _, p := range l.Params() {
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
	// Convert to ascending specs with their gradient-vector offsets.
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
	off := 0
	for s := range specs {
		sp := &specs[s]
		sp.Off = off
		for i := sp.LayerLo; i < sp.LayerHi; i++ {
			off += layerLen[i]
		}
		sp.End = off
	}
	return specs
}

// flatGrads moves the gradient tensors of params into one contiguous vector
// in params order — the layout bucketLayout's offsets index — re-pointing
// each G.Data at its span, and returns the vector.
func flatGrads(params []nn.Param) []float64 {
	n := 0
	for _, p := range params {
		n += len(p.G.Data)
	}
	v := make([]float64, n)
	at := 0
	for _, p := range params {
		k := copy(v[at:], p.G.Data)
		p.G.Data = v[at : at+k : at+k]
		at += k
	}
	return v
}

// initBuckets arms the group: one barrier and collective per spec over the
// group's server groups and the local replicas' gradient vectors grads
// (openDist non-nil when the stage spans worker processes; it opens the
// cross-process exchange group of one bucket). nlayers is the stage's layer
// count. Must be called once, right after newARGroup, before any step runs.
func (g *arGroup) initBuckets(nlayers int, specs []bucketSpec, grads [][]float64, openDist func(b, size int) (transport.Group, error)) error {
	g.buckets = make([]arBucket, len(specs))
	g.layerBucket = make([]int, nlayers)
	for i := range g.layerBucket {
		g.layerBucket[i] = -1
	}
	g.reduceQ = make(chan int, len(specs))
	g.commDone = make(chan struct{})
	for b, sp := range specs {
		bk := &g.buckets[b]
		bk.bufs = make([][]float64, g.n)
		for r, v := range grads {
			bk.bufs[r] = v[sp.Off:sp.End]
		}
		bk.seen = make([]bool, g.n)
		g.layerBucket[sp.LayerLo] = b
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

// reset re-arms every bucket barrier for the next step.
func (g *arGroup) reset() {
	g.commNanos = 0
	g.commDone = make(chan struct{})
	for b := range g.buckets {
		bk := &g.buckets[b]
		bk.arrived = 0
		bk.failed = false
		bk.commit = false
		clear(bk.seen)
	}
}

// abandon is failed local replica r's report: it counts as the replica's
// arrival and vetoes the commit of every bucket the replica has not yet
// reported — including the head bucket it withholds until the sync point —
// so peers' waitBuckets can never see a full commit once any local replica
// failed.
func (g *arGroup) abandon(r int) {
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
}

// arriveBucket reports that local replica r's gradients of bucket b are
// complete, without blocking: the last local report hands the bucket to the
// comm goroutine, which sums the replicas' views of it in place while they
// keep computing.
func (g *arGroup) arriveBucket(r, b int) {
	bk := &g.buckets[b]
	bk.mu.Lock()
	if bk.seen[r] { // an abandoned replica raced ahead of us; keep the veto
		bk.mu.Unlock()
		return
	}
	bk.seen[r] = true
	bk.arrived++
	last := bk.arrived == len(bk.bufs)
	bk.mu.Unlock()
	if last {
		g.reduceQ <- b
	}
}

// waitBuckets blocks until every bucket's collective resolved, reporting
// whether ALL buckets committed. All local replicas observe the same
// answer, so weight updates stay all-or-nothing per stage. On commit, every
// replica's gradient tensors hold the bit-identical all-reduced sum (across
// worker processes too, when the stage spans them).
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

// runComm is the per-step collective driver: it runs each completed
// bucket's collective in arrival order — concurrently with the replicas'
// remaining backward compute — and resolves the bucket's commit. It
// processes every bucket exactly once per step (abandon completes the
// buckets of failed replicas), so it always terminates, the step's
// WaitGroup can join it, and the single commDone close releases every
// replica blocked in waitBuckets. An aborted step leaves the sums of the
// buckets that did run (and a failed cross-process exchange's partial sums)
// in the replicas' gradient tensors; the step applies none of them, and the
// next step zeroes them before computing (Executor.gradsDirty).
func (g *arGroup) runComm(abort <-chan struct{}) {
	for range g.buckets {
		b := <-g.reduceQ
		bk := &g.buckets[b]
		bk.mu.Lock()
		failed := bk.failed
		bk.mu.Unlock()
		if !failed {
			t0 := time.Now()
			if bk.coll.AllReduceAbort(bk.bufs, abort) == nil {
				bk.commit = true
			}
			g.commNanos += time.Since(t0).Nanoseconds()
		}
	}
	close(g.commDone)
}
