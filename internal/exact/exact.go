package exact

import (
	"context"
	"errors"
	"math"

	"relpipe/internal/alloc"
	"relpipe/internal/chain"
	"relpipe/internal/interval"
	"relpipe/internal/mapping"
	"relpipe/internal/par"
	"relpipe/internal/platform"
)

// ErrInfeasible is returned when no partition satisfies the bounds.
var ErrInfeasible = errors.New("exact: no feasible mapping")

// Profile summarizes one partition of the chain: its (allocation-
// independent) worst-case period and latency on the homogeneous platform,
// and the best achievable log-reliability with its optimal replica
// counts. Profiles make bound sweeps cheap: the experiment harness
// filters the same profile set against hundreds of (P, L) bounds.
type Profile struct {
	Ends    []int   // last task of each interval
	Period  float64 // worst-case period of any mapping with this partition
	Latency float64 // worst-case latency of any mapping with this partition
	LogRel  float64 // best log-reliability (Algo-Alloc counts)
	Counts  []int   // optimal replica count per interval
}

// Profiles enumerates every partition of c with at most p intervals and
// returns its profile. The platform must be homogeneous.
func Profiles(c chain.Chain, pl platform.Platform) ([]Profile, error) {
	return ProfilesPar(context.Background(), c, pl, 1)
}

// ProfilesPar is Profiles with the enumeration sharded over the
// 2^{n-1} partition indices on up to par.Degree(parallelism) goroutines
// (see internal/par; 1 = sequential, 0 = GOMAXPROCS). Shard outputs are
// concatenated in shard order, so the result is bit-identical to the
// sequential enumeration for every degree. ctx cancels the enumeration
// mid-shard (nil = background).
func ProfilesPar(ctx context.Context, c chain.Chain, pl platform.Platform, parallelism int) ([]Profile, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if err := pl.Validate(); err != nil {
		return nil, err
	}
	if !pl.Homogeneous() {
		return nil, errors.New("exact: heterogeneous platform; the exact solver covers the homogeneous case")
	}
	n := len(c)
	chunks, err := par.MapShards(ctx, parallelism, interval.Count(n),
		func(ctx context.Context, s par.Shard) ([]Profile, error) {
			var local []Profile
			var tick int
			var stop error
			interval.VisitRange(n, s.Lo, s.Hi, func(parts interval.Partition) bool {
				if tick++; tick&511 == 0 {
					if err := ctx.Err(); err != nil {
						stop = err
						return false
					}
				}
				if len(parts) > pl.P() {
					return true // not enough processors for one per interval
				}
				m, err := alloc.Greedy(c, pl, parts)
				if err != nil {
					return true
				}
				ev, err := mapping.Evaluate(c, pl, m)
				if err != nil {
					return true
				}
				counts := make([]int, len(parts))
				for j := range m.Procs {
					counts[j] = len(m.Procs[j])
				}
				local = append(local, Profile{
					Ends:    parts.Clone().Ends(),
					Period:  ev.WorstPeriod,
					Latency: ev.WorstLatency,
					LogRel:  ev.LogRel,
					Counts:  counts,
				})
				return true
			})
			return local, stop
		})
	if err != nil {
		return nil, err
	}
	var out []Profile
	for _, ch := range chunks {
		out = append(out, ch...)
	}
	return out, nil
}

// Pareto removes profiles that are dominated on all three criteria: a
// profile is dominated if another has period ≤, latency ≤ and logRel ≥
// (with at least one strict). Sweeping bounds over the Pareto set gives
// the same answers as sweeping the full set, orders of magnitude faster.
func Pareto(ps []Profile) []Profile {
	out, err := ParetoPar(context.Background(), ps, 1)
	if err != nil {
		// Unreachable: the sequential dominance filter cannot fail.
		panic(err)
	}
	return out
}

// ParetoPar is Pareto with the O(n²) dominance checks sharded over the
// profiles (each profile's dominated-test is independent); the surviving
// profiles keep their input order, so the result is bit-identical to
// Pareto for every degree.
func ParetoPar(ctx context.Context, ps []Profile, parallelism int) ([]Profile, error) {
	dominated, err := par.Map(ctx, parallelism, len(ps), func(i int) (bool, error) {
		a := ps[i]
		for j, b := range ps {
			if i == j {
				continue
			}
			if b.Period <= a.Period && b.Latency <= a.Latency && b.LogRel >= a.LogRel &&
				(b.Period < a.Period || b.Latency < a.Latency || b.LogRel > a.LogRel) {
				return true, nil
			}
		}
		return false, nil
	})
	if err != nil {
		return nil, err
	}
	var out []Profile
	for i, d := range dominated {
		if !d {
			out = append(out, ps[i])
		}
	}
	return out, nil
}

// BestUnder returns the index of the most reliable profile meeting the
// bounds (<= 0 means unconstrained), or -1 if none does.
func BestUnder(ps []Profile, period, latency float64) int {
	best, bestLog := -1, math.Inf(-1)
	for i, p := range ps {
		if period > 0 && p.Period > period {
			continue
		}
		if latency > 0 && p.Latency > latency {
			continue
		}
		if p.LogRel > bestLog {
			best, bestLog = i, p.LogRel
		}
	}
	return best
}

// Materialize reconstructs the concrete mapping of a profile.
func Materialize(p Profile) mapping.Mapping {
	return mapping.AssignSequential(interval.FromEnds(p.Ends), p.Counts)
}

// OptimalPar returns the reliability-maximal mapping of c on the
// homogeneous platform pl subject to the period and latency bounds
// (<= 0 for unconstrained). It is a global optimum (see the package
// comment). The partition enumeration is sharded on up to
// par.Degree(parallelism) goroutines; BestUnder keeps the first profile
// under strict improvement and the shard-ordered enumeration preserves
// the sequential profile order, so the winning mapping is bit-identical
// for every degree.
func OptimalPar(ctx context.Context, c chain.Chain, pl platform.Platform, period, latency float64, parallelism int) (mapping.Mapping, mapping.Eval, error) {
	ps, err := ProfilesPar(ctx, c, pl, parallelism)
	if err != nil {
		return mapping.Mapping{}, mapping.Eval{}, err
	}
	i := BestUnder(ps, period, latency)
	if i < 0 {
		return mapping.Mapping{}, mapping.Eval{}, ErrInfeasible
	}
	m := Materialize(ps[i])
	ev, err := mapping.Evaluate(c, pl, m)
	if err != nil {
		return mapping.Mapping{}, mapping.Eval{}, err
	}
	return m, ev, nil
}
