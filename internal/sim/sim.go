// Package sim is a deterministic discrete-event simulator for dependent task
// graphs over exclusive resources (devices, network links). It substitutes
// for the paper's TensorFlow runtime on GPU clusters: schedule builders emit
// tasks with data/control dependencies, and the engine produces per-task
// timelines, resource utilization, and byte-accurate memory traces.
// RunContext records that timeline; Score runs the same engine for the
// totals alone (makespan, busy time, memory peaks), which is all a caller
// ranking many graphs reads.
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
	"cmp"
	"context"
	"fmt"
	"slices"
	"strconv"
)

// TaskID identifies a task within a Graph.
type TaskID int

// NoResource marks tasks that consume no resource time (pure ordering nodes).
const NoResource = -1

// Kind says what a task does. Untagged tasks get no span name or kind.
type Kind uint8

// The task kinds of a pipelined training iteration and their span names.
const (
	Untagged  Kind = iota
	Init           // "init.s<stage>": a stage's static allocation
	Fwd            // "F<mb>.s<stage>"
	Bwd            // "B<mb>.s<stage>"
	CommF          // "CF<mb>.s<stage>": activations to the next stage
	CommB          // "CB<mb>.s<stage>": gradients from the next stage
	AllReduce      // "AR.s<stage>": gradient sync and weight update
)

// kinds and prefixes are each Kind's span kind and span-name prefix.
var (
	kinds    = [...]string{"", "init", "fwd", "bwd", "comm", "comm", "allreduce"}
	prefixes = [...]string{"", "init", "F", "B", "CF", "CB", "AR"}
)

// String returns the kind spans carry: "fwd", "bwd", "comm", ...
func (k Kind) String() string { return kinds[k] }

// Tag labels a task compactly. Score never reads it; a timeline's spans
// carry it, and Name, the one formatter of task names, names them on request.
type Tag struct {
	Kind      Kind
	Stage, MB int32
}

// Name formats the tag as a span name: "F3.s1" is the forward pass of
// micro-batch 3 on stage 1.
func (t Tag) Name() string {
	if t.Kind == Untagged {
		return ""
	}
	b := append(make([]byte, 0, 24), prefixes[t.Kind]...)
	if Fwd <= t.Kind && t.Kind <= CommB {
		b = strconv.AppendInt(b, int64(t.MB), 10)
	}
	return string(strconv.AppendInt(append(b, ".s"...), int64(t.Stage), 10))
}

// Task is one unit of simulated work.
type Task struct {
	ID       TaskID
	Tag      Tag
	Resource int // executing resource, or NoResource
	Duration float64
	Priority int // lower runs first among simultaneously-startable tasks

	// Memory accounting: AllocBytes are charged to MemDevice when the task
	// starts, FreeBytes credited when it ends. MemDevice < 0 disables it.
	AllocBytes int64
	FreeBytes  int64
	MemDevice  int
}

// Graph is a task DAG under construction. A Graph is reusable: Reset clears
// its tasks, dependencies and resources while retaining their buffers, and
// a run keeps its working memory between runs, so a schedule builder
// rebuilds and re-runs iterations of any plan without reallocating. A Graph
// is not safe for concurrent use, runs included.
type Graph struct {
	tasks     []Task
	edges     []edge // every dependency, in AddDep order
	resources []string
	resIndex  map[string]int
	st        runState
	memDevs   int // 1 + highest MemDevice of any task
}

// edge records that task depends on dep.
type edge struct{ task, dep int32 }

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
	g.memDevs = max(g.memDevs, t.MemDevice+1)
	g.tasks = append(g.tasks, t)
	return id
}

// AddDep records that task depends on dep.
func (g *Graph) AddDep(task, dep TaskID) {
	if dep < 0 || task < 0 {
		return
	}
	g.edges = append(g.edges, edge{int32(task), int32(dep)})
}

// Reset clears the graph's tasks, dependencies and resources while keeping
// the capacity of every internal buffer, so the next build of a
// similarly-shaped graph allocates almost nothing. Resources interned again
// in the same order get the same indices.
func (g *Graph) Reset() {
	g.tasks = g.tasks[:0]
	g.edges = g.edges[:0]
	g.resources = g.resources[:0]
	clear(g.resIndex)
	g.memDevs = 0
}

// Span is one executed task in the result timeline. Kind is its tag's kind
// as a string; Name formats the tag.
type Span struct {
	Task       TaskID
	Tag        Tag
	Kind       string
	Resource   int
	Start, End float64
}

// Name returns the span's name, formatted from its tag: "F3.s1".
func (s Span) Name() string { return s.Tag.Name() }

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
	// instant, which then competes under its own key.) Score leaves it
	// nil.
	Spans     []Span
	Makespan  float64
	Resources []string

	// BusyTime per resource; utilization is BusyTime/Makespan.
	BusyTime []float64

	// PeakMem and MemTrace are dense slices indexed by memory-device id; a
	// device that never allocated has peak 0 and a nil trace. Use Peak and
	// Trace for range-safe access. Score leaves MemTrace nil.
	PeakMem  []int64
	MemTrace [][]MemPoint
}

// ResourceIndex returns the index of the named resource, or -1.
func (r *Result) ResourceIndex(name string) int {
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

// RunContext is Run under a context: execution stops between tasks once ctx
// is cancelled or past its deadline, returning ctx's error and no result.
func (g *Graph) RunContext(ctx context.Context) (*Result, error) {
	return g.execute(ctx, true)
}

// Score is RunContext without a timeline: the same run, whose Result holds
// the makespan, resources, busy time and memory peaks but no Spans and no
// MemTrace, so it allocates nothing per task.
func (g *Graph) Score(ctx context.Context) (*Result, error) {
	return g.execute(ctx, false)
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

// runState is a run's working memory, kept by the Graph between runs.
// Nothing in it escapes into a Result.
type runState struct {
	indeg, childOff, children, cursor []int32
	readyAt, resFree                  []float64
	nowQ, futQ                        []taskHeap
	global                            globalHeap
	allocs, frees                     []memEvent
	counts                            []int32
	curMem                            []int64
}

// zeroed returns xs resized to n zero elements, reusing its capacity.
func zeroed[T any](xs []T, n int) []T {
	if cap(xs) < n {
		return make([]T, n)
	}
	xs = xs[:n]
	clear(xs)
	return xs
}

// execute runs the graph, recording spans and memory traces when timeline
// is set.
func (g *Graph) execute(ctx context.Context, timeline bool) (*Result, error) {
	n := len(g.tasks)
	st := &g.st

	// Dependency state in CSR form, sized exactly from the edge list.
	indeg := zeroed(st.indeg, n)
	childOff := zeroed(st.childOff, n+1)
	for _, e := range g.edges {
		indeg[e.task]++
		childOff[e.dep+1]++
	}
	for i := 0; i < n; i++ {
		childOff[i+1] += childOff[i]
	}
	children := zeroed(st.children, len(g.edges))
	cursor := zeroed(st.cursor, n)
	copy(cursor, childOff[:n])
	for _, e := range g.edges {
		children[cursor[e.dep]] = e.task
		cursor[e.dep]++
	}

	readyAt := zeroed(st.readyAt, n) // earliest start from dependencies
	resFree := zeroed(st.resFree, len(g.resources))

	res := &Result{
		Resources: append([]string(nil), g.resources...),
		BusyTime:  make([]float64, len(g.resources)),
		PeakMem:   make([]int64, g.memDevs),
	}
	if timeline {
		res.Spans = make([]Span, 0, n)
		res.MemTrace = make([][]MemPoint, g.memDevs)
	}
	allocs, frees := st.allocs[:0], st.frees[:0]

	// Runnable tasks live in per-resource now/future heaps; the indexed
	// global heap tracks each resource's cheapest candidate under the
	// engine's (earliest start, priority, task ID) pick order. NoResource
	// tasks share one pseudo-resource whose free time never moves, so their
	// start is always their ready time. See heap.go for the invariants.
	nowQ := resetHeaps(st.nowQ, len(g.resources)+1, true)
	futQ := resetHeaps(st.futQ, len(g.resources)+1, false)
	pseudo := int32(len(g.resources)) // the NoResource queue
	global := &st.global
	global.reset(len(g.resources) + 1)
	defer func() {
		st.indeg, st.childOff, st.children, st.cursor = indeg, childOff, children, cursor
		st.readyAt, st.resFree = readyAt, resFree
		st.nowQ, st.futQ = nowQ, futQ
		st.allocs, st.frees = allocs, frees
	}()

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
		if timeline {
			res.Spans = append(res.Spans, Span{
				Task: it.id, Tag: t.Tag, Kind: t.Tag.Kind.String(), Resource: t.Resource,
				Start: start, End: end,
			})
		}
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

	applyMemEvents(res, allocs, frees, st)
	return res, nil
}

// applyMemEvents replays the run's memory events in time order and fills
// PeakMem, and MemTrace when the run records one. At equal timestamps
// allocations apply before frees: a task starting the instant another ends
// briefly holds both footprints, and applying the free first would
// under-count the true peak. Allocations arrive already time-ordered (tasks
// execute in non-decreasing start order) and frees sort by (end time,
// emission order).
func applyMemEvents(res *Result, allocs, frees []memEvent, st *runState) {
	if len(allocs) == 0 && len(frees) == 0 {
		return
	}
	slices.SortFunc(frees, func(a, b memEvent) int {
		if c := cmp.Compare(a.time, b.time); c != 0 {
			return c
		}
		return cmp.Compare(a.ord, b.ord)
	})
	trace := res.MemTrace != nil
	if trace {
		counts := zeroed(st.counts, len(res.MemTrace))
		st.counts = counts
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
	}
	curMem := zeroed(st.curMem, len(res.PeakMem))
	st.curMem = curMem
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
		if trace {
			res.MemTrace[ev.dev] = append(res.MemTrace[ev.dev], MemPoint{ev.time, curMem[ev.dev]})
		}
	}
}

// Validate checks the graph for out-of-range dependencies and resources.
func (g *Graph) Validate() error {
	for i := range g.tasks {
		t := &g.tasks[i]
		if t.Resource != NoResource && (t.Resource < 0 || t.Resource >= len(g.resources)) {
			return fmt.Errorf("sim: task %d uses unknown resource %d", t.ID, t.Resource)
		}
		if t.Duration < 0 {
			return fmt.Errorf("sim: task %d has negative duration", t.ID)
		}
	}
	for _, e := range g.edges {
		if int(e.task) >= len(g.tasks) || int(e.dep) >= len(g.tasks) {
			return fmt.Errorf("sim: task %d depends on unknown task %d", e.task, e.dep)
		}
	}
	return nil
}
