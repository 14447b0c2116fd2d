package sim

// Scheduler data structures of the event-driven engine. The runnable set is
// split per resource into two heaps plus one indexed global heap, giving each
// task O(log n) total instead of the reference engine's linear scan per pick:
//
//   - future[r] holds tasks whose dependency-ready time still exceeds the
//     resource's free time, keyed (ready, priority, ID). Its top is the
//     earliest-startable future task of r.
//   - now[r] holds tasks startable the moment r frees (ready <= free time),
//     keyed (priority, ID) only — they all share start = freeTime, which the
//     key need not repeat because it shifts uniformly as the resource runs.
//   - the global heap holds one candidate per resource — its cheapest
//     runnable task under (start, priority, ID) — indexed by resource so a
//     resource's entry is fixed in place whenever its candidate changes.
//
// A task migrates from future[r] to now[r] at most once (free times only
// grow), so every task costs a bounded number of heap operations. The
// candidate comparison is the same (earliest start, priority, task ID) order
// the reference engine's scan uses, and task IDs make every key unique, so
// the pick sequence — and therefore the Result — is byte-identical.

// heapItem is one runnable task: start is its key time (dependency-ready
// time in future heaps; unused in now heaps, where the resource free time
// rules).
type heapItem struct {
	start float64
	prio  int
	id    TaskID
}

// less orders items by (start, priority, task ID) — the engine's pick order.
func (a heapItem) less(b heapItem) bool {
	if a.start != b.start {
		return a.start < b.start
	}
	if a.prio != b.prio {
		return a.prio < b.prio
	}
	return a.id < b.id
}

// nowLess orders items by (priority, task ID): the key of now-heaps, whose
// members all share the resource's free time as start.
func (a heapItem) nowLess(b heapItem) bool {
	if a.prio != b.prio {
		return a.prio < b.prio
	}
	return a.id < b.id
}

// taskHeap is a binary min-heap of heapItems under the given comparator. It
// is hand-rolled rather than container/heap to keep push/pop free of
// interface dispatch and allocation on the engine's hot path.
type taskHeap struct {
	items []heapItem
	now   bool // use nowLess instead of less
}

func (h *taskHeap) less(i, j int) bool {
	if h.now {
		return h.items[i].nowLess(h.items[j])
	}
	return h.items[i].less(h.items[j])
}

func (h *taskHeap) push(it heapItem) {
	h.items = append(h.items, it)
	i := len(h.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

func (h *taskHeap) pop() heapItem {
	s := h.items
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	h.items = s[:last]
	if last > 0 {
		h.siftDown(0)
	}
	return top
}

func (h *taskHeap) siftDown(i int) {
	n := len(h.items)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && h.less(r, l) {
			m = r
		}
		if !h.less(m, i) {
			return
		}
		h.items[i], h.items[m] = h.items[m], h.items[i]
		i = m
	}
}

// resCand is one global-heap entry: resource res's current candidate key.
type resCand struct {
	key heapItem
	res int32
}

// globalHeap is an indexed min-heap of per-resource candidates: pos[res]
// tracks each resource's slot so update and remove fix the entry in place.
type globalHeap struct {
	items []resCand
	pos   []int32 // index into items, -1 when the resource has no entry
}

// reset empties the heap for nRes resources, reusing its buffers.
func (g *globalHeap) reset(nRes int) {
	g.items = g.items[:0]
	if cap(g.pos) < nRes {
		g.pos = make([]int32, nRes)
	}
	g.pos = g.pos[:nRes]
	for i := range g.pos {
		g.pos[i] = -1
	}
}

// resetHeaps returns n empty heaps of the given kind, reusing hs and the
// item buffers within its capacity.
func resetHeaps(hs []taskHeap, n int, now bool) []taskHeap {
	if cap(hs) < n {
		hs = append(hs[:cap(hs)], make([]taskHeap, n-cap(hs))...)
	}
	hs = hs[:n]
	for i := range hs {
		hs[i].items = hs[i].items[:0]
		hs[i].now = now
	}
	return hs
}

// update inserts or reorders resource res with the given candidate key.
func (g *globalHeap) update(res int32, key heapItem) {
	if p := g.pos[res]; p >= 0 {
		g.items[p].key = key
		g.fix(int(p))
		return
	}
	g.items = append(g.items, resCand{key: key, res: res})
	i := len(g.items) - 1
	g.pos[res] = int32(i)
	g.siftUp(i)
}

// remove deletes resource res's entry, if present.
func (g *globalHeap) remove(res int32) {
	p := g.pos[res]
	if p < 0 {
		return
	}
	last := len(g.items) - 1
	g.items[p] = g.items[last]
	g.items = g.items[:last]
	g.pos[res] = -1
	if int(p) < last {
		g.pos[g.items[p].res] = p
		g.fix(int(p))
	}
}

func (g *globalHeap) fix(i int) {
	g.siftUp(i)
	g.siftDown(i)
}

func (g *globalHeap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !g.items[i].key.less(g.items[parent].key) {
			return
		}
		g.swap(i, parent)
		i = parent
	}
}

func (g *globalHeap) siftDown(i int) {
	n := len(g.items)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && g.items[r].key.less(g.items[l].key) {
			m = r
		}
		if !g.items[m].key.less(g.items[i].key) {
			return
		}
		g.swap(i, m)
		i = m
	}
}

func (g *globalHeap) swap(i, j int) {
	g.items[i], g.items[j] = g.items[j], g.items[i]
	g.pos[g.items[i].res] = int32(i)
	g.pos[g.items[j].res] = int32(j)
}
