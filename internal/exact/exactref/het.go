package exactref

import (
	"context"
	"errors"
	"math"

	"relpipe/internal/chain"
	"relpipe/internal/exact"
	"relpipe/internal/interval"
	"relpipe/internal/mapping"
	"relpipe/internal/par"
	"relpipe/internal/platform"
)

// hetBest is one shard's incumbent of the heterogeneous search.
type hetBest struct {
	logRel float64
	m      mapping.Mapping
	ev     mapping.Eval
}

// OptimalHetPar exhaustively solves the tri-criteria problem on
// arbitrary (heterogeneous) platforms: it enumerates every partition and
// every assignment of processors to intervals. The problem is
// NP-complete even without bounds (Theorem 5), and this search is
// exponential in both n and p — it exists as the ground-truth oracle for
// validating the §7 heuristics and the §6 hardness gadget on small
// instances, and is guarded accordingly (n ≤ 12, p ≤ 8).
//
// Feasibility uses worst-case period and latency; bounds ≤ 0 are
// unconstrained. No mapping meeting them is exact.ErrInfeasible, as in
// the homogeneous solver.
//
// The partition space is sharded on up to par.Degree(parallelism)
// goroutines. Each shard keeps the first strictly-best mapping of its
// own contiguous partition range; merging the shard incumbents in shard
// order under the same strict comparison reproduces exactly the mapping
// a sequential scan keeps, so the result is bit-identical for every
// degree.
func OptimalHetPar(ctx context.Context, c chain.Chain, pl platform.Platform, period, latency float64, parallelism int) (mapping.Mapping, mapping.Eval, error) {
	if err := c.Validate(); err != nil {
		return mapping.Mapping{}, mapping.Eval{}, err
	}
	if err := pl.Validate(); err != nil {
		return mapping.Mapping{}, mapping.Eval{}, err
	}
	n := len(c)
	p := pl.P()
	if n > 12 || p > 8 {
		return mapping.Mapping{}, mapping.Eval{}, errors.New("exactref: OptimalHetPar limited to n ≤ 12 tasks and p ≤ 8 processors; use the heuristics")
	}
	bests, err := par.MapShards(ctx, parallelism, interval.Count(n),
		func(ctx context.Context, s par.Shard) (hetBest, error) {
			best := hetBest{logRel: math.Inf(-1)}
			var stop error
			var leaves int
			assign := make([]int, p) // processor → interval index, -1 unused
			counts := make([]int, n)
			interval.VisitRange(n, s.Lo, s.Hi, func(parts interval.Partition) bool {
				if err := ctx.Err(); err != nil {
					stop = err
					return false
				}
				m := len(parts)
				if m > p {
					return true
				}
				for j := range counts[:m] {
					counts[j] = 0
				}
				// One partition's assignment recursion visits up to
				// (m+1)^p leaves, so cancellation is polled inside it
				// too — a single ctx check per partition could lag by
				// the whole exponential enumeration.
				var rec func(u int)
				rec = func(u int) {
					if stop != nil {
						return
					}
					if u == p {
						if leaves++; leaves&4095 == 0 {
							if err := ctx.Err(); err != nil {
								stop = err
								return
							}
						}
						for j := 0; j < m; j++ {
							if counts[j] == 0 {
								return
							}
						}
						mp := mapping.Mapping{Parts: parts, Procs: make([][]int, m)}
						for v, j := range assign {
							if j >= 0 {
								mp.Procs[j] = append(mp.Procs[j], v)
							}
						}
						ev, err := mapping.Evaluate(c, pl, mp)
						if err != nil {
							return
						}
						if period > 0 && ev.WorstPeriod > period {
							return
						}
						if latency > 0 && ev.WorstLatency > latency {
							return
						}
						if ev.LogRel > best.logRel {
							best.logRel = ev.LogRel
							best.m = mp.Clone()
							best.m.Parts = parts.Clone()
							best.ev = ev
						}
						return
					}
					assign[u] = -1
					rec(u + 1)
					for j := 0; j < m; j++ {
						if counts[j] >= pl.MaxReplicas {
							continue
						}
						assign[u] = j
						counts[j]++
						rec(u + 1)
						counts[j]--
					}
					assign[u] = -1
				}
				rec(0)
				return stop == nil
			})
			return best, stop
		})
	if err != nil {
		return mapping.Mapping{}, mapping.Eval{}, err
	}
	winner := hetBest{logRel: math.Inf(-1)}
	for _, b := range bests {
		if b.logRel > winner.logRel {
			winner = b
		}
	}
	if math.IsInf(winner.logRel, -1) {
		return mapping.Mapping{}, mapping.Eval{}, exact.ErrInfeasible
	}
	return winner.m, winner.ev, nil
}
