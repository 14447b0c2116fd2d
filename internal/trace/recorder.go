package trace

import (
	"sort"
	"time"

	"dapple/internal/sim"
)

// Recorder captures spans from a real concurrent execution in the same shape
// the discrete-event simulator emits, so a really-executed schedule and its
// simulated counterpart are directly comparable (and renderable by the same
// Gantt/Chrome tooling). Resources must be interned with Resource before the
// execution starts; during execution each resource must be driven by a single
// goroutine, which records its spans in its own execution order — the
// concurrency model of one worker goroutine per device. Spans carry
// sim.Tags, as simulated ones do, so real and simulated span names agree.
type Recorder struct {
	start     time.Time
	resources []string
	spans     [][]sim.Span // per resource, in that resource's execution order
	resIndex  map[string]int
}

// NewRecorder returns a Recorder whose clock starts now.
func NewRecorder() *Recorder {
	return &Recorder{start: time.Now(), resIndex: map[string]int{}}
}

// Resource interns a named resource and returns its index. Not safe for
// concurrent use; intern every resource before recording starts.
func (r *Recorder) Resource(name string) int {
	if i, ok := r.resIndex[name]; ok {
		return i
	}
	i := len(r.resources)
	r.resources = append(r.resources, name)
	r.spans = append(r.spans, nil)
	r.resIndex[name] = i
	return i
}

// Now returns the recorder-relative monotonic time in seconds.
func (r *Recorder) Now() float64 {
	return time.Since(r.start).Seconds()
}

// Reset clears recorded spans and restarts the clock while keeping interned
// resources and per-resource span capacity, so a long-lived executor records
// iteration after iteration without re-allocating its trace buffers.
func (r *Recorder) Reset() {
	r.start = time.Now()
	for i := range r.spans {
		r.spans[i] = r.spans[i][:0]
	}
}

// Record appends one executed span, labelled tag, to resource res.
// Distinct resources may record concurrently; a single resource must record
// from one goroutine, in start-time order.
func (r *Recorder) Record(res int, tag sim.Tag, start, end float64) {
	r.spans[res] = append(r.spans[res], sim.Span{
		Task:     sim.TaskID(-1),
		Tag:      tag,
		Kind:     tag.Kind.String(),
		Resource: res,
		Start:    start,
		End:      end,
	})
}

// Result assembles the recorded spans into a sim.Result: spans merged in
// start-time order (per-resource order preserved at equal starts), Makespan
// the latest end time, and BusyTime the per-resource span-duration sums.
// Memory traces are not recorded; PeakMem and MemTrace stay empty.
func (r *Recorder) Result() *sim.Result {
	n := 0
	for _, ss := range r.spans {
		n += len(ss)
	}
	res := &sim.Result{
		Spans:     make([]sim.Span, 0, n),
		Resources: append([]string(nil), r.resources...),
		BusyTime:  make([]float64, len(r.resources)),
	}
	for i, ss := range r.spans {
		for _, s := range ss {
			res.Spans = append(res.Spans, s)
			res.BusyTime[i] += s.End - s.Start
			if s.End > res.Makespan {
				res.Makespan = s.End
			}
		}
	}
	sort.SliceStable(res.Spans, func(i, j int) bool {
		return res.Spans[i].Start < res.Spans[j].Start
	})
	return res
}
