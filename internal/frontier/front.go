package frontier

// Front returns the elements of xs that no other element dominates, in
// input order. An element dominates another when its period and latency
// are ≤ and its log-reliability ≥ the other's, one of them strictly, so
// every copy of an undominated triple is kept, and a triple with a NaN
// neither dominates nor is dominated.
//
// Front compares each element only against a running archive of the
// undominated elements seen so far, the prefix's Pareto set: a
// dominated element is dropped, any other evicts the entries it
// dominates and joins. Dominance is transitive, so the final archive is
// exactly what an all-pairs comparison keeps.
func Front[T any](xs []T, crit func(T) (period, latency, logRel float64)) []T {
	type entry struct {
		t   triple
		idx int
	}
	var archive []entry
next:
	for i, x := range xs {
		var t triple
		t.period, t.latency, t.logRel = crit(x)
		for _, e := range archive {
			if e.t.dominates(t) {
				continue next
			}
		}
		kept := archive[:0]
		for _, e := range archive {
			if !t.dominates(e.t) {
				kept = append(kept, e)
			}
		}
		archive = append(kept, entry{t, i})
	}
	if len(archive) == 0 {
		return nil
	}
	out := make([]T, len(archive))
	for k, e := range archive {
		out[k] = xs[e.idx]
	}
	return out
}

type triple struct{ period, latency, logRel float64 }

// dominates reports b no worse than a on every criterion and strictly
// better on at least one.
func (b triple) dominates(a triple) bool {
	return b.period <= a.period && b.latency <= a.latency && b.logRel >= a.logRel &&
		(b.period < a.period || b.latency < a.latency || b.logRel > a.logRel)
}
