// Package sim is a deterministic discrete-event simulator for dependent task
// graphs over exclusive resources (devices, network links). It substitutes
// for the paper's TensorFlow runtime on GPU clusters: schedule builders emit
// tasks with data/control dependencies, and the engine produces per-task
// timelines, resource utilization, and byte-accurate memory traces.
//
// Semantics: every task optionally occupies one resource for Duration
// seconds; a task becomes ready when all dependencies have finished; a
// resource executes one task at a time. Among runnable tasks the engine picks
// the one that can start earliest, breaking ties by priority then insertion
// order, which makes runs fully deterministic.
//
// The engine is event-driven: runnable tasks wait in an indexed min-heap
// keyed by (earliest start, priority, task ID) with per-resource free-time
// tracking, so each of n tasks costs O(log n) instead of a linear scan over
// the runnable set. The pre-rewrite O(n·|runnable|) engine survives only as
// the test-only oracle RunReference (reference_test.go); both produce
// byte-identical Results.
package sim

import (
	"context"
	"fmt"
	"sort"
)

// TaskID identifies a task within a Graph.
type TaskID int

// NoResource marks tasks that consume no resource time (pure ordering nodes).
const NoResource = -1

// Task is one unit of simulated work.
type Task struct {
	ID       TaskID
	Name     string
	Kind     string // free-form label surfaced in traces ("fwd", "bwd", "comm", "allreduce", ...)
	Resource int    // executing resource, or NoResource
	Duration float64
	Priority int // lower runs first among simultaneously-startable tasks

	// Memory accounting: AllocBytes are charged to MemDevice when the task
	// starts, FreeBytes credited when it ends. MemDevice < 0 disables it.
	AllocBytes int64
	FreeBytes  int64
	MemDevice  int

	deps []TaskID
}

// Graph is a task DAG under construction. A Graph is reusable: Reset clears
// the tasks while retaining interned resources and every task/dependency
// buffer, so schedule sweeps rebuild iterations without reallocating.
type Graph struct {
	tasks     []Task
	resources []string
	resIndex  map[string]int

	// Counts maintained by Add/AddDep so RunContext can size every buffer
	// exactly instead of growing them.
	memDevs int // 1 + highest MemDevice of any task
	nDeps   int // total dependency edges
	nAllocs int // tasks charging AllocBytes
	nFrees  int // tasks crediting FreeBytes
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{resIndex: map[string]int{}}
}

// Resource interns a named resource and returns its index.
func (g *Graph) Resource(name string) int {
	if i, ok := g.resIndex[name]; ok {
		return i
	}
	i := len(g.resources)
	g.resources = append(g.resources, name)
	g.resIndex[name] = i
	return i
}

// NumTasks returns the number of tasks added so far.
func (g *Graph) NumTasks() int { return len(g.tasks) }

// Add appends a task and returns its ID. The task's ID field is filled in.
func (g *Graph) Add(t Task) TaskID {
	id := TaskID(len(g.tasks))
	t.ID = id
	if t.MemDevice == 0 && t.AllocBytes == 0 && t.FreeBytes == 0 {
		t.MemDevice = -1
	}
	if t.MemDevice >= 0 {
		if t.MemDevice+1 > g.memDevs {
			g.memDevs = t.MemDevice + 1
		}
		if t.AllocBytes != 0 {
			g.nAllocs++
		}
		if t.FreeBytes != 0 {
			g.nFrees++
		}
	}
	if len(g.tasks) < cap(g.tasks) {
		// Reuse the slot (and its dependency buffer) retired by Reset.
		g.tasks = g.tasks[:id+1]
		if t.deps == nil {
			t.deps = g.tasks[id].deps[:0]
		}
		g.tasks[id] = t
	} else {
		g.tasks = append(g.tasks, t)
	}
	return id
}

// AddDep records that task depends on dep.
func (g *Graph) AddDep(task, dep TaskID) {
	if dep < 0 || task < 0 {
		return
	}
	t := &g.tasks[task]
	t.deps = append(t.deps, dep)
	g.nDeps++
}

// Reset clears the graph's tasks while keeping interned resources and the
// capacity of every internal buffer, so the next build of a similarly-shaped
// graph (a schedule sweep varying policy or micro-batch count) allocates
// almost nothing.
func (g *Graph) Reset() {
	g.tasks = g.tasks[:0]
	g.memDevs = 0
	g.nDeps = 0
	g.nAllocs = 0
	g.nFrees = 0
}

// Task returns the task with the given id (for inspection in tests). The
// pointer is invalidated by the next Add or Reset.
func (g *Graph) Task(id TaskID) *Task { return &g.tasks[id] }

// Span is one executed task in the result timeline.
type Span struct {
	Task       TaskID
	Name, Kind string
	Resource   int
	Start, End float64
}

// MemPoint is one step of a device's memory-over-time trace.
type MemPoint struct {
	Time  float64
	Bytes int64
}

// Result is the outcome of executing a Graph.
type Result struct {
	// Spans lists the executed tasks in execution order: Start is
	// non-decreasing, and tasks starting at the same instant appear in the
	// engine's deterministic pick order. (That order is not simply
	// (priority, task ID) within an equal-start run: a zero-duration task
	// picked earlier can enable a child that also starts at the same
	// instant, which then competes under its own key.)
	Spans     []Span
	Makespan  float64
	Resources []string

	// BusyTime per resource; utilization is BusyTime/Makespan.
	BusyTime []float64

	// PeakMem and MemTrace are dense slices indexed by memory-device id; a
	// device that never allocated has peak 0 and a nil trace. Use Peak and
	// Trace for range-safe access.
	PeakMem  []int64
	MemTrace [][]MemPoint

	// resIndex is the graph's interned name->index map, carried into the
	// result so ResourceIndex is O(1) instead of a scan per call.
	resIndex map[string]int
}

// ResourceIndex returns the index of the named resource, or -1.
func (r *Result) ResourceIndex(name string) int {
	if r.resIndex != nil {
		if i, ok := r.resIndex[name]; ok && i < len(r.Resources) {
			return i
		}
		return -1
	}
	for i, n := range r.Resources {
		if n == name {
			return i
		}
	}
	return -1
}

// Peak returns device dev's peak bytes, 0 when it never allocated.
func (r *Result) Peak(dev int) int64 {
	if dev < 0 || dev >= len(r.PeakMem) {
		return 0
	}
	return r.PeakMem[dev]
}

// Trace returns device dev's memory-over-time trace, nil when it has none.
func (r *Result) Trace(dev int) []MemPoint {
	if dev < 0 || dev >= len(r.MemTrace) {
		return nil
	}
	return r.MemTrace[dev]
}

// Utilization returns resource r's busy fraction of the makespan.
func (r *Result) Utilization(res int) float64 {
	if r.Makespan == 0 {
		return 0
	}
	return r.BusyTime[res] / r.Makespan
}

// AvgUtilization averages utilization over the given resources, or all when
// none are specified.
func (r *Result) AvgUtilization(res ...int) float64 {
	if len(res) == 0 {
		for i := range r.Resources {
			res = append(res, i)
		}
	}
	var sum float64
	for _, i := range res {
		sum += r.Utilization(i)
	}
	return sum / float64(len(res))
}

// MaxPeakMem returns the largest per-device peak.
func (r *Result) MaxPeakMem() int64 {
	var m int64
	for _, v := range r.PeakMem {
		if v > m {
			m = v
		}
	}
	return m
}

// AvgPeakMem returns the mean per-device peak across devices that allocated.
func (r *Result) AvgPeakMem() float64 {
	var sum float64
	n := 0
	for _, v := range r.PeakMem {
		if v > 0 {
			sum += float64(v)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Run executes the graph and returns its timeline. It panics on dependency
// cycles (a builder bug, not an input condition).
func (g *Graph) Run() *Result {
	res, err := g.RunContext(context.Background())
	if err != nil { // unreachable: Background is never cancelled
		panic(err)
	}
	return res
}

// ctxCheckStride bounds how many tasks execute between context checks; large
// graphs (GPipe floods build O(stages x M) tasks) stay responsive to
// cancellation without paying an atomic load per task.
const ctxCheckStride = 512

// memEvent is one pending memory-accounting step: delta bytes on device dev
// at the given time. ord is the emission order, the tie-break among frees
// sharing a timestamp.
type memEvent struct {
	time  float64
	delta int64
	dev   int32
	ord   int32
}

// RunContext is Run under a context: execution stops between tasks once ctx
// is cancelled or past its deadline, returning ctx's error and no result.
func (g *Graph) RunContext(ctx context.Context) (*Result, error) {
	n := len(g.tasks)

	// Dependency state in CSR form, sized exactly from the counts Add and
	// AddDep maintain.
	indeg := make([]int32, n)
	childOff := make([]int32, n+1)
	for i := range g.tasks {
		t := &g.tasks[i]
		indeg[i] = int32(len(t.deps))
		for _, d := range t.deps {
			childOff[d+1]++
		}
	}
	for i := 0; i < n; i++ {
		childOff[i+1] += childOff[i]
	}
	children := make([]int32, g.nDeps)
	cursor := make([]int32, n)
	copy(cursor, childOff[:n])
	for i := range g.tasks {
		for _, d := range g.tasks[i].deps {
			children[cursor[d]] = int32(i)
			cursor[d]++
		}
	}

	readyAt := make([]float64, n) // earliest start from dependencies
	resFree := make([]float64, len(g.resources))

	res := &Result{
		Spans:     make([]Span, 0, n),
		Resources: append([]string(nil), g.resources...),
		BusyTime:  make([]float64, len(g.resources)),
		PeakMem:   make([]int64, g.memDevs),
		MemTrace:  make([][]MemPoint, g.memDevs),
		resIndex:  g.resIndex,
	}
	allocs := make([]memEvent, 0, g.nAllocs)
	frees := make([]memEvent, 0, g.nFrees)

	// Runnable tasks live in per-resource now/future heaps; the indexed
	// global heap tracks each resource's cheapest candidate under the
	// engine's (earliest start, priority, task ID) pick order. NoResource
	// tasks share one pseudo-resource whose free time never moves, so their
	// start is always their ready time. See heap.go for the invariants.
	nowQ := make([]taskHeap, len(g.resources)+1)
	futQ := make([]taskHeap, len(g.resources)+1)
	for r := range nowQ {
		nowQ[r].now = true
	}
	pseudo := int32(len(g.resources)) // the NoResource queue
	global := newGlobalHeap(len(g.resources) + 1)

	// refresh recomputes resource r's global candidate. now-tasks start at
	// the resource free time and beat every future task (whose ready time is
	// strictly later by the migration invariant), so the candidate is the
	// now-top when one exists, else the future-top.
	refresh := func(r int32) {
		switch {
		case len(nowQ[r].items) > 0:
			top := nowQ[r].items[0]
			top.start = resFree[r]
			global.update(r, top)
		case len(futQ[r].items) > 0:
			global.update(r, futQ[r].items[0])
		default:
			global.remove(r)
		}
	}

	// enqueue files a task that just became runnable under its resource.
	enqueue := func(id TaskID, ready float64) {
		t := &g.tasks[id]
		it := heapItem{start: ready, prio: t.Priority, id: id}
		r := pseudo
		if t.Resource != NoResource {
			r = int32(t.Resource)
		}
		if r != pseudo && ready <= resFree[r] {
			nowQ[r].push(it)
		} else {
			futQ[r].push(it)
		}
		refresh(r)
	}

	for i := range g.tasks {
		if indeg[i] == 0 {
			enqueue(TaskID(i), 0)
		}
	}

	for executed := 0; executed < n; executed++ {
		if executed%ctxCheckStride == 0 && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if len(global.items) == 0 {
			panic("sim: dependency cycle in task graph")
		}
		r := global.items[0].res
		var it heapItem
		var start float64
		if r != pseudo && len(nowQ[r].items) > 0 {
			it = nowQ[r].pop()
			start = resFree[r]
		} else {
			it = futQ[r].pop()
			start = it.start
		}
		t := &g.tasks[it.id]
		end := start + t.Duration
		if t.Resource != NoResource {
			resFree[t.Resource] = end
			res.BusyTime[t.Resource] += t.Duration
			// The resource is busy until end: every future task now ready by
			// then joins the now-heap (each migrates at most once).
			for len(futQ[r].items) > 0 && futQ[r].items[0].start <= end {
				nowQ[r].push(futQ[r].pop())
			}
		}
		refresh(r)
		res.Spans = append(res.Spans, Span{
			Task: it.id, Name: t.Name, Kind: t.Kind, Resource: t.Resource,
			Start: start, End: end,
		})
		if end > res.Makespan {
			res.Makespan = end
		}
		if t.MemDevice >= 0 {
			if t.AllocBytes != 0 {
				allocs = append(allocs, memEvent{time: start, delta: t.AllocBytes, dev: int32(t.MemDevice)})
			}
			if t.FreeBytes != 0 {
				frees = append(frees, memEvent{time: end, delta: -t.FreeBytes, dev: int32(t.MemDevice), ord: int32(len(frees))})
			}
		}
		for k := childOff[it.id]; k < childOff[it.id+1]; k++ {
			c := children[k]
			if readyAt[c] < end {
				readyAt[c] = end
			}
			indeg[c]--
			if indeg[c] == 0 {
				enqueue(TaskID(c), readyAt[c])
			}
		}
	}

	applyMemEvents(res, allocs, frees)
	return res, nil
}

// applyMemEvents replays the run's memory events in time order and fills
// PeakMem and MemTrace. At equal timestamps allocations apply before frees: a
// task starting the instant another ends briefly holds both footprints, and
// applying the free first would under-count the true peak. Allocations arrive
// already time-ordered (tasks execute in non-decreasing start order) and
// frees sort by (end time, emission order).
func applyMemEvents(res *Result, allocs, frees []memEvent) {
	if len(allocs) == 0 && len(frees) == 0 {
		return
	}
	sort.Slice(frees, func(i, j int) bool {
		if frees[i].time != frees[j].time {
			return frees[i].time < frees[j].time
		}
		return frees[i].ord < frees[j].ord
	})
	counts := make([]int32, len(res.MemTrace))
	for i := range allocs {
		counts[allocs[i].dev]++
	}
	for i := range frees {
		counts[frees[i].dev]++
	}
	for d, c := range counts {
		if c > 0 {
			res.MemTrace[d] = make([]MemPoint, 0, c)
		}
	}
	curMem := make([]int64, len(res.PeakMem))
	ai, fi := 0, 0
	for ai < len(allocs) || fi < len(frees) {
		var ev memEvent
		if fi >= len(frees) || (ai < len(allocs) && allocs[ai].time <= frees[fi].time) {
			ev = allocs[ai]
			ai++
		} else {
			ev = frees[fi]
			fi++
		}
		curMem[ev.dev] += ev.delta
		if curMem[ev.dev] > res.PeakMem[ev.dev] {
			res.PeakMem[ev.dev] = curMem[ev.dev]
		}
		res.MemTrace[ev.dev] = append(res.MemTrace[ev.dev], MemPoint{ev.time, curMem[ev.dev]})
	}
}

// Validate checks the graph for out-of-range dependencies and resources.
func (g *Graph) Validate() error {
	for i := range g.tasks {
		t := &g.tasks[i]
		if t.Resource != NoResource && (t.Resource < 0 || t.Resource >= len(g.resources)) {
			return fmt.Errorf("sim: task %d (%s) uses unknown resource %d", t.ID, t.Name, t.Resource)
		}
		if t.Duration < 0 {
			return fmt.Errorf("sim: task %d (%s) has negative duration", t.ID, t.Name)
		}
		for _, d := range t.deps {
			if d < 0 || int(d) >= len(g.tasks) {
				return fmt.Errorf("sim: task %d (%s) depends on unknown task %d", t.ID, t.Name, d)
			}
		}
	}
	return nil
}
