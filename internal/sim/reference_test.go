package sim

import (
	"math"
	"sort"
)

// RunReference executes the graph with the pre-rewrite O(n·|runnable|)
// engine: every step linearly scans the runnable set for the task that can
// start earliest (ties by priority, then task ID), and memory events replay
// through an independent sort-then-scan pass rather than the engine's
// merge, so the differential tests cover memory accounting too. It is test
// code: the oracle for the event-driven engine — equivalence tests assert
// byte-identical Results from both on randomized DAGs and on every zoo-model
// schedule — and the baseline of the simulator microbenchmarks.
//
// One deliberate deviation from the pre-rewrite binary: that engine ended by
// cosmetically re-sorting Spans by (Start, Task ID), which this oracle does
// not reproduce, because Result.Spans' contract is now execution order.
// Cross-resource ties at equal start times can therefore appear in a
// different order than the old binary printed; every in-tree consumer
// (Gantt paints cells by position, WriteChrome re-sorts by timestamp,
// per-resource scans) is insensitive to it. Scheduling decisions, span
// contents, makespan, busy time and memory accounting are unchanged.
func (g *Graph) RunReference() *Result {
	n := len(g.tasks)
	indeg := make([]int, n)
	children := make([][]TaskID, n)
	for _, e := range g.edges {
		indeg[e.task]++
		children[e.dep] = append(children[e.dep], TaskID(e.task))
	}

	ready := make([]float64, n) // earliest start from dependencies
	resFree := make([]float64, len(g.resources))

	// runnable holds tasks whose deps are satisfied.
	var runnable []TaskID
	for i := range g.tasks {
		if indeg[i] == 0 {
			runnable = append(runnable, TaskID(i))
		}
	}

	res := &Result{
		Resources: append([]string(nil), g.resources...),
		BusyTime:  make([]float64, len(g.resources)),
		PeakMem:   make([]int64, g.memDevs),
		MemTrace:  make([][]MemPoint, g.memDevs),
	}
	// refEvent is this engine's own memory-event record: one flat list,
	// replayed by sorting, independent of the engine's two-stream merge.
	type refEvent struct {
		time  float64
		delta int64
		dev   int
		free  bool
		order int
	}
	var events []refEvent

	for executed := 0; executed < n; executed++ {
		if len(runnable) == 0 {
			panic("sim: dependency cycle in task graph")
		}
		// Pick the runnable task that can start earliest.
		best, bestStart := -1, math.Inf(1)
		for i, id := range runnable {
			t := &g.tasks[id]
			start := ready[id]
			if t.Resource != NoResource && resFree[t.Resource] > start {
				start = resFree[t.Resource]
			}
			better := start < bestStart
			if !better && start == bestStart {
				b := &g.tasks[runnable[best]]
				if t.Priority != b.Priority {
					better = t.Priority < b.Priority
				} else {
					better = id < runnable[best]
				}
			}
			if better {
				best, bestStart = i, start
			}
		}
		id := runnable[best]
		runnable[best] = runnable[len(runnable)-1]
		runnable = runnable[:len(runnable)-1]

		t := &g.tasks[id]
		start := bestStart
		end := start + t.Duration
		if t.Resource != NoResource {
			resFree[t.Resource] = end
			res.BusyTime[t.Resource] += t.Duration
		}
		res.Spans = append(res.Spans, Span{
			Task: id, Tag: t.Tag, Kind: t.Tag.Kind.String(), Resource: t.Resource,
			Start: start, End: end,
		})
		if end > res.Makespan {
			res.Makespan = end
		}
		if t.MemDevice >= 0 {
			if t.AllocBytes != 0 {
				events = append(events, refEvent{start, t.AllocBytes, t.MemDevice, false, len(events)})
			}
			if t.FreeBytes != 0 {
				events = append(events, refEvent{end, -t.FreeBytes, t.MemDevice, true, len(events)})
			}
		}
		for _, c := range children[id] {
			if ready[c] < end {
				ready[c] = end
			}
			indeg[c]--
			if indeg[c] == 0 {
				runnable = append(runnable, c)
			}
		}
	}

	// Replay in time order, allocations before frees at equal instants and
	// emission order within each class — the same semantics the engine's
	// alloc/free merge implements, derived here by an independent route.
	sort.Slice(events, func(i, j int) bool {
		if events[i].time != events[j].time {
			return events[i].time < events[j].time
		}
		if events[i].free != events[j].free {
			return !events[i].free
		}
		return events[i].order < events[j].order
	})
	curMem := make([]int64, g.memDevs)
	for _, ev := range events {
		curMem[ev.dev] += ev.delta
		if curMem[ev.dev] > res.PeakMem[ev.dev] {
			res.PeakMem[ev.dev] = curMem[ev.dev]
		}
		res.MemTrace[ev.dev] = append(res.MemTrace[ev.dev], MemPoint{ev.time, curMem[ev.dev]})
	}
	return res
}
