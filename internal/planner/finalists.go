package planner

// finalistTable is the search's candidate table, and it holds exactly what
// finalize reads:
//
//   - the best k hybrid candidates by betterCand, one per signature, in a
//     heap whose root is the worst kept entry (the k-th best once k are
//     kept);
//   - every non-hybrid candidate (pure data parallelism or a straight
//     pipeline), one per signature, in a map of their own. These are the
//     reference corners that always get a simulator hearing; beyond the
//     seeds, the general search makes them only on clusters of at most
//     MaxStages devices.
//
// The table is exact. Each signature keeps its best entry, and an entry
// leaves only when k better entries with other signatures exist, so the heap
// always holds the true top k of the best-per-signature hybrids. Every top-k
// candidate over all kinds is therefore in the table, and the result does
// not depend on insertion order, which is what lets branch tables merge
// through the same put.
type finalistTable struct {
	k      int
	hybrid []candidate    // heap: no entry is better than its children
	pos    map[string]int // signature -> index in hybrid
	corner map[string]candidate
}

// admits reports whether a hybrid candidate could enter the table: it beats
// the k-th kept hybrid, or fewer than k are kept. A rejected candidate is
// beaten by all k kept hybrids, including the one kept for its own signature
// if there is one, so it can never be a finalist; the search drops it
// before building its signature.
func (t *finalistTable) admits(c candidate) bool {
	return len(t.hybrid) < t.k || betterCand(c, t.hybrid[0])
}

// lookup returns the entry kept for a signature. The conversion in the map
// index does not allocate.
func (t *finalistTable) lookup(hybrid bool, sig []byte) (candidate, bool) {
	if !hybrid {
		c, ok := t.corner[string(sig)]
		return c, ok
	}
	if i, ok := t.pos[string(sig)]; ok {
		return t.hybrid[i], true
	}
	return candidate{}, false
}

// put records c under c.sig unless an entry the table keeps instead is
// better: the one already kept for the signature, or for a new hybrid
// signature, the k-th kept hybrid of a full table, which c then replaces.
func (t *finalistTable) put(c candidate, hybrid bool) {
	if !hybrid {
		if old, ok := t.corner[c.sig]; !ok || betterCand(c, old) {
			if t.corner == nil {
				t.corner = map[string]candidate{}
			}
			t.corner[c.sig] = c
		}
		return
	}
	if i, ok := t.pos[c.sig]; ok {
		if betterCand(c, t.hybrid[i]) {
			t.hybrid[i] = c
			t.fix(i)
		}
		return
	}
	if !t.admits(c) {
		return
	}
	if t.pos == nil {
		t.pos = map[string]int{}
	}
	i := len(t.hybrid)
	if i == t.k {
		i = 0
		delete(t.pos, t.hybrid[0].sig)
		t.hybrid[0] = c
	} else {
		t.hybrid = append(t.hybrid, c)
	}
	t.pos[c.sig] = i
	t.fix(i)
}

// fix restores the heap order after the entry at i changed.
func (t *finalistTable) fix(i int) {
	h := t.hybrid
	for i > 0 {
		p := (i - 1) / 2
		if !betterCand(h[p], h[i]) {
			break
		}
		t.swap(i, p)
		i = p
	}
	for {
		worst := i
		for _, ch := range [2]int{2*i + 1, 2*i + 2} {
			if ch < len(h) && betterCand(h[worst], h[ch]) {
				worst = ch
			}
		}
		if worst == i {
			return
		}
		t.swap(i, worst)
		i = worst
	}
}

func (t *finalistTable) swap(i, j int) {
	h := t.hybrid
	h[i], h[j] = h[j], h[i]
	t.pos[h[i].sig] = i
	t.pos[h[j].sig] = j
}

// merge folds another table into t.
func (t *finalistTable) merge(o *finalistTable) {
	for _, c := range o.hybrid {
		t.put(c, true)
	}
	for _, c := range o.corner {
		t.put(c, false)
	}
}

// all returns every kept entry, hybrids first, in no particular order.
func (t *finalistTable) all() []candidate {
	out := make([]candidate, 0, len(t.hybrid)+len(t.corner))
	out = append(out, t.hybrid...)
	for _, c := range t.corner {
		out = append(out, c)
	}
	return out
}
