package schedule

import (
	"strconv"
	"sync"
	"sync/atomic"
)

// Task and resource names.
//
// Only traces and the Gantt chart read names, yet every build labels every
// task, so builds format none: every name comes from one package-level
// table. A published table is immutable and read with a single atomic load.
// A build larger than the current table publishes a grown copy under
// namesMu; the copy shares every row it does not extend.

// Name kinds of the per-micro-batch tasks, indexed into nameTable.task.
const (
	nameFwd = iota
	nameBwd
	nameCommF
	nameCommB
	nameKinds
)

// namePrefixes render a task name as prefix, micro-batch, ".s", stage: the
// bytes fmt.Sprintf("F%d.s%d", mb, stage) and its siblings produce.
var namePrefixes = [nameKinds]string{"F", "B", "CF", "CB"}

// nameTable holds every name a build of up to len(init) stages uses, with
// stage i's per-micro-batch rows covering len(task[i][k]) micro-batches.
type nameTable struct {
	// res lists the resources in interning order: stage0, link0.fwd,
	// link0.bwd, stage1, ..., so an S-stage build interns res[:3S-2] and
	// stage i's executor is resource 3i (stageRes).
	res  []string
	init []string              // init.s<i>
	ar   []string              // AR.s<i>
	task [][nameKinds][]string // task[stage][kind][mb]
}

var (
	names   atomic.Pointer[nameTable]
	namesMu sync.Mutex
)

// covers reports whether t names every task of an s-stage, m-micro-batch
// build.
func (t *nameTable) covers(s, m int) bool {
	if t == nil || len(t.init) < s {
		return false
	}
	for i := 0; i < s; i++ {
		if len(t.task[i][0]) < m {
			return false
		}
	}
	return true
}

// nameTableFor returns a table naming every task of an s-stage,
// m-micro-batch build.
func nameTableFor(s, m int) *nameTable {
	if t := names.Load(); t.covers(s, m) {
		return t
	}
	namesMu.Lock()
	defer namesMu.Unlock()
	old := names.Load()
	if old.covers(s, m) {
		return old
	}
	t := &nameTable{}
	if old != nil {
		*t = *old
	}
	if len(t.init) < s {
		t.res, t.init, t.ar = stageNames(s)
	}
	// A fresh row index: the published one is never written.
	t.task = append(make([][nameKinds][]string, 0, len(t.init)), t.task...)[:len(t.init)]
	for i := 0; i < s; i++ {
		if n := len(t.task[i][0]); n < m {
			// Rows grow at least geometrically, so a process rebuilds each
			// only a few times.
			t.task[i] = taskNames(i, max(m, 2*n))
		}
	}
	names.Store(t)
	return t
}

// stageNames returns the resource, init and all-reduce names of s stages.
func stageNames(s int) (res, init, ar []string) {
	for i := 0; i < s; i++ {
		n := strconv.Itoa(i)
		res = append(res, "stage"+n)
		if i < s-1 {
			res = append(res, "link"+n+".fwd", "link"+n+".bwd")
		}
		init = append(init, "init.s"+n)
		ar = append(ar, "AR.s"+n)
	}
	return res, init, ar
}

// taskNames returns stage's per-micro-batch task names for m micro-batches.
func taskNames(stage, m int) (rows [nameKinds][]string) {
	suffix := ".s" + strconv.Itoa(stage)
	for k, prefix := range namePrefixes {
		rows[k] = make([]string, m)
		for mb := range rows[k] {
			rows[k][mb] = prefix + strconv.Itoa(mb) + suffix
		}
	}
	return rows
}
