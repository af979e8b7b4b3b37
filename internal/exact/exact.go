package exact

import (
	"context"
	"errors"
	"math"

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
//
// Every float equals the one mapping.Evaluate returns for the mapping
// Algo-Alloc builds on the partition, bit for bit: the enumeration
// reads per-interval terms from one table filled through the same
// functions in the same order, and folds them in ascending interval
// order as the evaluator does (see table).
type Profile struct {
	Ends    []int   // last task of each interval
	Period  float64 // worst-case period of any mapping with this partition
	Latency float64 // worst-case latency of any mapping with this partition
	LogRel  float64 // best log-reliability (Algo-Alloc counts)
	Counts  []int   // optimal replica count per interval
}

// Criteria returns the profile's frontier.Front criteria.
func (p Profile) Criteria() (period, latency, logRel float64) {
	return p.Period, p.Latency, p.LogRel
}

// Profiles enumerates every partition of c with at most p intervals and
// returns its profile. The platform must be homogeneous.
func Profiles(c chain.Chain, pl platform.Platform) ([]Profile, error) {
	return ProfilesPar(context.Background(), c, pl, 1)
}

// validate checks an instance for the homogeneous exact solver.
func validate(c chain.Chain, pl platform.Platform) error {
	if err := c.Validate(); err != nil {
		return err
	}
	if err := pl.Validate(); err != nil {
		return err
	}
	if !pl.Homogeneous() {
		return errors.New("exact: heterogeneous platform; the exact solver covers the homogeneous case")
	}
	return nil
}

// ProfilesPar is Profiles with the enumeration sharded over the
// 2^{n-1} partition indices on up to par.Degree(parallelism) goroutines
// (see internal/par; 1 = sequential, 0 = GOMAXPROCS). Every shard writes
// its profiles straight into its own range of the result, which
// t.below locates by counting, so the result is bit-identical to the
// sequential enumeration for every degree and nothing is copied after
// the fan-out. ctx cancels the enumeration mid-shard (nil = background).
//
// Each shard carves its profiles' Ends and Counts from one arena sized
// exactly for the shard, each slice capacity-clipped so an append by a
// caller cannot run into its neighbour.
func ProfilesPar(ctx context.Context, c chain.Chain, pl platform.Platform, parallelism int) ([]Profile, error) {
	if err := validate(c, pl); err != nil {
		return nil, err
	}
	t := newTable(c, pl)
	total, _ := t.below(interval.Count(t.n))
	out := make([]Profile, total)
	err := par.Run(ctx, parallelism, interval.Count(t.n), func(ctx context.Context, s par.Shard) error {
		lo, loInts := t.below(s.Lo)
		hi, hiInts := t.below(s.Hi)
		dst := out[lo:hi]
		arena := make([]int, 2*(hiInts-loInts))
		g := t.newGreedy()
		return t.enumerate(ctx, s, g, func(parts interval.Partition, period, latency float64) {
			logRel := g.allocate()
			m := len(parts)
			ends := arena[:m:m]
			counts := arena[m : 2*m : 2*m]
			arena = arena[2*m:]
			for j, iv := range parts {
				ends[j] = iv.Last
			}
			copy(counts, g.counts)
			dst[0] = Profile{Ends: ends, Period: period, Latency: latency, LogRel: logRel, Counts: counts}
			dst = dst[1:]
		})
	})
	if err != nil {
		return nil, err
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

// Pick is a partition a Sweep caller keeps past its visit: a value of
// the caller's choosing, the partition's ends and the greedy's replica
// counts at the time.
type Pick struct {
	Value        float64
	Ends, Counts []int
}

// Set overwrites p with the visited partition and g's current counts,
// reusing p's slices.
func (p *Pick) Set(value float64, parts interval.Partition, g *Greedy) {
	p.Value, p.Ends = value, p.Ends[:0]
	for _, iv := range parts {
		p.Ends = append(p.Ends, iv.Last)
	}
	p.Counts = append(p.Counts[:0], g.counts...)
}

// OptimalPar returns the reliability-maximal mapping of c on the
// homogeneous platform pl subject to the period and latency bounds
// (<= 0 for unconstrained). It is a global optimum (see the package
// comment). The partition enumeration is a Sweep on up to
// par.Degree(parallelism) goroutines. Each shard keeps the first
// strictly most reliable partition of its contiguous index range that
// meets the bounds, running Algo-Alloc only on those; merging the
// shard picks in shard order under the same strict comparison picks the
// profile BestUnder would pick from ProfilesPar, so the winning mapping
// is bit-identical for every degree.
func OptimalPar(ctx context.Context, c chain.Chain, pl platform.Platform, period, latency float64, parallelism int) (mapping.Mapping, mapping.Eval, error) {
	bests, err := Sweep(ctx, c, pl, parallelism,
		func() Pick { return Pick{Value: math.Inf(-1)} },
		func(best *Pick, g *Greedy, parts interval.Partition, p, l float64) {
			if (period > 0 && p > period) || (latency > 0 && l > latency) {
				return
			}
			if logRel := g.allocate(); logRel > best.Value {
				best.Set(logRel, parts, g)
			}
		})
	if err != nil {
		return mapping.Mapping{}, mapping.Eval{}, err
	}
	winner := Pick{Value: math.Inf(-1)}
	for _, b := range bests {
		if b.Value > winner.Value {
			winner = b
		}
	}
	if math.IsInf(winner.Value, -1) {
		return mapping.Mapping{}, mapping.Eval{}, ErrInfeasible
	}
	m := Materialize(Profile{Ends: winner.Ends, Counts: winner.Counts})
	ev, err := mapping.Evaluate(c, pl, m)
	if err != nil {
		return mapping.Mapping{}, mapping.Eval{}, err
	}
	return m, ev, nil
}
