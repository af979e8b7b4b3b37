package search

import (
	"relpipe/internal/interval"
	"relpipe/internal/mapping"
	"relpipe/internal/rng"
)

// The neighborhoods. Every move reads cur and writes the neighbor into
// next (two caller-owned buffers; an accepted move is a pointer swap),
// reports whether it produced a valid neighbor, and describes which
// intervals it rewrote as a mapping.Touched so the incremental
// evaluator re-scores only those:
//
//   - moveBoundary shifts one interval boundary by one task;
//   - mergeIntervals fuses two adjacent intervals (surplus replicas
//     over K return to the pool);
//   - splitInterval cuts an interval in two, staffing the new half
//     from the pool or from the interval's own surplus replicas;
//   - swapReplica exchanges a used processor for an unused one;
//   - addReplica / dropReplica grow or shrink one interval's replica
//     set within [1, K];
//   - stealReplica moves a replica from one interval to another.
//
// Mappings stay valid by construction: the partition always tiles the
// chain, every interval keeps 1..K replicas, and a processor serves at
// most one interval. Only live processors (Repair's survivor mask)
// ever serve: seeds and the warm mapping place survivors only, and the
// moves that draw a processor from the unused pool, which keeps the
// dead ones, check it with usable.
//
// Moves never alias cur's storage into next (content is always copied
// into next's own reused arrays) and never read next's prior content,
// so a rejected proposal leaves cur untouched and the buffers reach a
// steady state where the whole propose/score cycle allocates nothing.
// Each move draws from the rng in a fixed order regardless of outcome
// shape — the annealing trajectory is part of the engine's determinism
// contract.

// moveKind identifies one neighborhood.
type moveKind int

const (
	moveBoundary moveKind = iota
	mergeIntervals
	splitInterval
	swapReplica
	addReplica
	dropReplica
	stealReplica
)

// moveTable lists each neighborhood with a draw weight per objective:
// reliability and period searches favour structure and replication
// moves, the cost search favours replica-shedding ones.
var moveWeights = map[objective][]moveKind{
	maxReliability: weighted(3, moveBoundary, 2, splitInterval, 2, mergeIntervals,
		3, addReplica, 2, swapReplica, 2, stealReplica, 1, dropReplica),
	minPeriod: weighted(4, moveBoundary, 3, splitInterval, 2, mergeIntervals,
		2, addReplica, 2, swapReplica, 2, stealReplica, 1, dropReplica),
	minCost: weighted(2, moveBoundary, 1, splitInterval, 3, mergeIntervals,
		1, addReplica, 2, swapReplica, 2, stealReplica, 3, dropReplica),
}

func weighted(pairs ...any) []moveKind {
	var out []moveKind
	for i := 0; i < len(pairs); i += 2 {
		w := pairs[i].(int)
		k := pairs[i+1].(moveKind)
		for j := 0; j < w; j++ {
			out = append(out, k)
		}
	}
	return out
}

// usable reports whether processor u is alive.
func (p problem) usable(u int) bool {
	return p.opts.alive == nil || p.opts.alive[u]
}

// propose draws neighborhoods until one yields a valid neighbor in
// next, with a bounded number of attempts (a failed attempt costs one
// iteration).
func (p problem) propose(cur, next *state, r *rng.Rand) (mapping.Touched, bool) {
	table := moveWeights[p.obj]
	for attempt := 0; attempt < 8; attempt++ {
		var t mapping.Touched
		var ok bool
		switch table[r.IntN(len(table))] {
		case moveBoundary:
			t, ok = p.moveBoundary(cur, next, r)
		case mergeIntervals:
			t, ok = p.mergeIntervals(cur, next, r)
		case splitInterval:
			t, ok = p.splitInterval(cur, next, r)
		case swapReplica:
			t, ok = p.swapReplica(cur, next, r)
		case addReplica:
			t, ok = p.addReplica(cur, next, r)
		case dropReplica:
			t, ok = p.dropReplica(cur, next, r)
		case stealReplica:
			t, ok = p.stealReplica(cur, next, r)
		}
		if ok {
			return t, true
		}
	}
	return mapping.Touched{}, false
}

func (p problem) moveBoundary(cur, next *state, r *rng.Rand) (mapping.Touched, bool) {
	m := len(cur.parts)
	if m < 2 {
		return mapping.Touched{}, false
	}
	b := r.IntN(m - 1) // boundary between intervals b and b+1
	right := r.IntN(2) == 0
	if right {
		if cur.parts[b+1].Size() < 2 {
			return mapping.Touched{}, false
		}
	} else if cur.parts[b].Size() < 2 {
		return mapping.Touched{}, false
	}
	next.copyFrom(cur)
	if right {
		next.parts[b].Last++
		next.parts[b+1].First++
	} else {
		next.parts[b].Last--
		next.parts[b+1].First--
	}
	return mapping.TouchTwo(b, b+1), true
}

func (p problem) mergeIntervals(cur, next *state, r *rng.Rand) (mapping.Touched, bool) {
	m := len(cur.parts)
	if m < 2 {
		return mapping.Touched{}, false
	}
	j := r.IntN(m - 1)
	k := p.pl.MaxReplicas

	// Fuse interval j+1 into j: keep at most K processors in encounter
	// order, free the rest to the pool.
	next.setIntervals(len(cur.procs) - 1)
	for i := 0; i < j; i++ {
		next.setProcs(i, cur.procs[i])
	}
	next.unused = append(next.unused[:0], cur.unused...)
	kept := next.procs[j][:0]
	for pass := 0; pass < 2; pass++ {
		src := cur.procs[j]
		if pass == 1 {
			src = cur.procs[j+1]
		}
		for _, u := range src {
			if len(kept) < k {
				kept = append(kept, u)
			} else {
				next.unused = append(next.unused, u)
			}
		}
	}
	next.procs[j] = kept
	for i := j + 1; i < len(next.procs); i++ {
		next.setProcs(i, cur.procs[i+1])
	}

	next.parts = append(next.parts[:0], cur.parts[:j+1]...)
	next.parts[j].Last = cur.parts[j+1].Last
	next.parts = append(next.parts, cur.parts[j+2:]...)
	return mapping.TouchMerge(j), true
}

func (p problem) splitInterval(cur, next *state, r *rng.Rand) (mapping.Touched, bool) {
	m := len(cur.parts)
	j := r.IntN(m)
	size := cur.parts[j].Size()
	if size < 2 {
		return mapping.Touched{}, false
	}
	cut := cur.parts[j].First + r.IntN(size-1) // last task of the left half

	// Staff the right half: an unused live processor, else a surplus
	// replica of the split interval itself.
	next.unused = append(next.unused[:0], cur.unused...)
	rightProc := -1
	if len(next.unused) > 0 {
		start := r.IntN(len(next.unused))
		for i := 0; i < len(next.unused); i++ {
			idx := (start + i) % len(next.unused)
			if p.usable(next.unused[idx]) {
				rightProc = next.unused[idx]
				next.unused = append(next.unused[:idx], next.unused[idx+1:]...)
				break
			}
		}
	}
	left := cur.procs[j]
	if rightProc < 0 {
		if len(left) < 2 {
			return mapping.Touched{}, false
		}
		last := len(left) - 1
		rightProc = left[last]
		left = left[:last]
	}

	next.setIntervals(len(cur.procs) + 1)
	for i := 0; i < j; i++ {
		next.setProcs(i, cur.procs[i])
	}
	next.setProcs(j, left)
	next.procs[j+1] = append(next.procs[j+1][:0], rightProc)
	for i := j + 1; i < len(cur.procs); i++ {
		next.setProcs(i+1, cur.procs[i])
	}

	next.parts = append(next.parts[:0], cur.parts[:j]...)
	next.parts = append(next.parts,
		interval.Interval{First: cur.parts[j].First, Last: cut},
		interval.Interval{First: cut + 1, Last: cur.parts[j].Last})
	next.parts = append(next.parts, cur.parts[j+1:]...)
	return mapping.TouchSplit(j), true
}

func (p problem) swapReplica(cur, next *state, r *rng.Rand) (mapping.Touched, bool) {
	if len(cur.unused) == 0 {
		return mapping.Touched{}, false
	}
	j := r.IntN(len(cur.parts))
	ri := r.IntN(len(cur.procs[j]))
	ui := r.IntN(len(cur.unused))
	if !p.usable(cur.unused[ui]) {
		return mapping.Touched{}, false
	}
	next.copyFrom(cur)
	next.procs[j][ri], next.unused[ui] = next.unused[ui], next.procs[j][ri]
	return mapping.TouchOne(j), true
}

func (p problem) addReplica(cur, next *state, r *rng.Rand) (mapping.Touched, bool) {
	if len(cur.unused) == 0 {
		return mapping.Touched{}, false
	}
	j := r.IntN(len(cur.parts))
	if len(cur.procs[j]) >= p.pl.MaxReplicas {
		return mapping.Touched{}, false
	}
	ui := r.IntN(len(cur.unused))
	if !p.usable(cur.unused[ui]) {
		return mapping.Touched{}, false
	}
	next.copyFrom(cur)
	next.procs[j] = append(next.procs[j], next.unused[ui])
	next.unused = append(next.unused[:ui], next.unused[ui+1:]...)
	return mapping.TouchOne(j), true
}

func (p problem) dropReplica(cur, next *state, r *rng.Rand) (mapping.Touched, bool) {
	j := r.IntN(len(cur.parts))
	if len(cur.procs[j]) < 2 {
		return mapping.Touched{}, false
	}
	ri := r.IntN(len(cur.procs[j]))
	next.copyFrom(cur)
	next.unused = append(next.unused, next.procs[j][ri])
	next.procs[j] = append(next.procs[j][:ri], next.procs[j][ri+1:]...)
	return mapping.TouchOne(j), true
}

func (p problem) stealReplica(cur, next *state, r *rng.Rand) (mapping.Touched, bool) {
	m := len(cur.parts)
	if m < 2 {
		return mapping.Touched{}, false
	}
	src := r.IntN(m)
	dst := r.IntN(m)
	if src == dst || len(cur.procs[src]) < 2 || len(cur.procs[dst]) >= p.pl.MaxReplicas {
		return mapping.Touched{}, false
	}
	ri := r.IntN(len(cur.procs[src]))
	next.copyFrom(cur)
	next.procs[dst] = append(next.procs[dst], next.procs[src][ri])
	next.procs[src] = append(next.procs[src][:ri], next.procs[src][ri+1:]...)
	return mapping.TouchTwo(src, dst), true
}
