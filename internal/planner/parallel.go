package planner

import (
	"sync"
	"sync/atomic"
)

// Parallel search.
//
// The dynamic program's first level — the choice of the first stage's split
// point, replication degree and placement — partitions the whole search tree
// into independent subtrees, so the planner fans those transitions out over
// a bounded worker pool. Determinism is preserved by construction, not by
// locking:
//
//   - every branch runs on fully isolated state (its own memo, finalist
//     table and pruning incumbent, seeded with the best as of its chunk's
//     start), so a branch's outcome is a pure function of its root task and
//     the fixed-size chunk it belongs to;
//   - every branch stamps its candidates from a disjoint sequence-number
//     block ordered like the sequential visit order, and branch finalist
//     tables merge into the root's through the same insert the branch's own
//     candidates went through.
//
// The finalist table is exact — it always holds the true top K plus every
// non-hybrid candidate — so the merged table, and hence the chosen plan, the
// analytic latency and the explored count, is byte-identical for every
// Workers value and for every goroutine interleaving.

// rootTask is one depth-0 transition: the first stage covers layers
// [0, j2) on the placement take.
type rootTask struct {
	j2   int
	take alloc
}

// rootTasks enumerates the depth-0 transitions in the exact order the
// sequential extend loops would visit them.
func (s *search) rootTasks(used alloc) []rootTask {
	if 1 >= s.maxStages {
		return nil
	}
	n := s.m.NumLayers()
	free := s.freeTotal(used)
	var tasks []rootTask
	var buf [3]alloc
	for j2 := 1; j2 < n; j2++ {
		for r := 1; r < free; r++ {
			for _, take := range s.placements(used, r, &buf) {
				tasks = append(tasks, rootTask{j2: j2, take: take.clone()})
			}
		}
	}
	return tasks
}

// branch derives the isolated sub-search for root task i: empty memo and
// candidate tables, the incumbent as of the enclosing chunk's start as its
// pruning baseline (s.best is only written between chunks, so every branch
// of a chunk reads the same value), and a sequence-number block disjoint
// from every other branch so that merged tie-breaks reproduce the
// sequential visit order. The derived constants (sumFB, micro-batch
// geometry) are shared read-only. When the worker has finished a branch
// before, done, the new branch takes over its memo (cleared) and walk
// scratch (emptied): merge reads neither.
func (s *search) branch(i int, done *search) *search {
	b := &search{
		ctx: s.ctx,
		m:   s.m, c: s.c, gbs: s.gbs,
		maxStages: s.maxStages,
		memCheck:  s.memCheck,
		slack:     s.slack,
		workers:   1,
		prune:     s.prune,
		mb:        s.mb,
		mOne:      s.mOne,
		sumFB:     s.sumFB,
		best:      s.best,
		seq:       (uint64(i) + 1) << 32,
		cands:     finalistTable{k: s.cands.k},
	}
	if done == nil {
		b.memo = map[string]float64{}
		return b
	}
	clear(done.memo)
	b.memo, done.memo = done.memo, nil
	b.path, done.path = done.path[:0], nil
	b.units, done.units = done.units[:0], nil
	b.devs, done.devs = done.devs[:0], nil
	b.ints, done.ints = done.ints[:0], nil
	b.key, done.key = done.key[:0], nil
	b.cur, done.cur = done.cur, nil
	return b
}

// merge folds a completed branch into the root search. Its finalist table
// goes through the same put the branch's own candidates did, and the table
// does not depend on insertion order.
func (s *search) merge(b *search) {
	s.explored += b.explored
	if b.best < s.best {
		s.best = b.best
	}
	s.cands.merge(&b.cands)
}

// fanoutChunk is the fixed number of root tasks processed between merges.
// Chunking bounds how much branch state is alive at once, and merging
// between chunks feeds the tightened incumbent to later branches. The size
// is a constant — never a function of the worker count — because every
// branch inherits the incumbent as of its chunk's start: fixed boundaries
// make that inheritance, and hence the entire search, identical for every
// Workers value.
const fanoutChunk = 256

// fanout runs one branch search per first-stage transition on the worker
// pool and merges the branches in task order, one fixed-size chunk at a
// time. Branches never observe mid-chunk results, so scheduling and worker
// count cannot leak into the merged outcome.
func (s *search) fanout(used alloc) {
	tasks := s.rootTasks(used)
	if len(tasks) == 0 {
		return
	}
	workers := s.workers
	if workers > len(tasks) {
		workers = len(tasks)
	}
	if workers < 1 {
		workers = 1
	}
	chunk := fanoutChunk
	branches := make([]*search, len(tasks))
	for lo := 0; lo < len(tasks) && !s.cancelled(); lo += chunk {
		hi := lo + chunk
		if hi > len(tasks) {
			hi = len(tasks)
		}
		next := int64(lo) - 1
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var done *search
				for {
					i := int(atomic.AddInt64(&next, 1))
					if i >= hi || s.ctx.Err() != nil {
						return
					}
					b := s.branch(i, done)
					b.step(0, tasks[i].j2, used, nil, tasks[i].take, 0)
					branches[i], done = b, b
				}
			}()
		}
		wg.Wait()
		for i := lo; i < hi; i++ {
			if branches[i] != nil {
				s.merge(branches[i])
				branches[i] = nil
			}
		}
	}
}
