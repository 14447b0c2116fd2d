package planner

import "slices"

// placements enumerates per-server take vectors for a stage of r devices
// using the three policies of §IV-B, deduplicated, into buf. On flat
// clusters (one GPU per server) all policies coincide, collapsing the
// placement space. The vectors live on the search's scratch stack.
func (s *search) placements(used alloc, r int, buf *[3]alloc) []alloc {
	if r <= 0 || r > s.freeTotal(used) {
		return nil
	}
	out := buf[:0]
	for _, t := range [...]alloc{
		s.freshFirst(used, r),
		s.appendFirst(used, r),
		s.scatterFirst(used, r),
	} {
		if t != nil && !slices.ContainsFunc(out, func(o alloc) bool { return slices.Equal(o, t) }) {
			out = append(out, t)
		}
	}
	return out
}

// serverOrder returns server indices in the policy's preference: fresh
// (unused) servers first or last, ascending index within each group.
func (s *search) serverOrder(used alloc, preferFresh bool) []int {
	order := s.push(len(used))[:0]
	for _, fresh := range [...]bool{preferFresh, !preferFresh} {
		for srv, u := range used {
			if (u == 0) == fresh {
				order = append(order, srv)
			}
		}
	}
	return order
}

// greedyTake fills servers in the given order.
func (s *search) greedyTake(used alloc, r int, order []int) alloc {
	take := s.push(s.c.Servers)
	for _, srv := range order {
		if r == 0 {
			break
		}
		free := s.c.GPUsPerServer - used[srv]
		k := free
		if k > r {
			k = r
		}
		take[srv] = k
		r -= k
	}
	if r > 0 {
		return nil
	}
	return take
}

// freshFirst allocates from completely unused machines first, keeping the
// stage on as few machines as possible to exploit NVLink for intra-stage
// gradient sync.
func (s *search) freshFirst(used alloc, r int) alloc {
	return s.greedyTake(used, r, s.serverOrder(used, true))
}

// appendFirst allocates from machines that already host earlier stages,
// reducing fragmentation.
func (s *search) appendFirst(used alloc, r int) alloc {
	return s.greedyTake(used, r, s.serverOrder(used, false))
}

// scatterFirst spreads the stage evenly across machines with free devices:
// one device per machine round-robin.
func (s *search) scatterFirst(used alloc, r int) alloc {
	take := s.push(s.c.Servers)
	remaining := r
	for remaining > 0 {
		progress := false
		for srv := 0; srv < s.c.Servers && remaining > 0; srv++ {
			if used[srv]+take[srv] < s.c.GPUsPerServer {
				take[srv]++
				remaining--
				progress = true
			}
		}
		if !progress {
			return nil
		}
	}
	return take
}
