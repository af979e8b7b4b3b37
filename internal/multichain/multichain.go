package multichain

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"relpipe/internal/chain"
	"relpipe/internal/exact"
	"relpipe/internal/failure"
	"relpipe/internal/interval"
	"relpipe/internal/mapping"
	"relpipe/internal/platform"
)

// ErrInfeasible is returned when the chains cannot all fit.
var ErrInfeasible = errors.New("multichain: no feasible joint mapping")

// App is one application sharing the platform: a chain with its own
// real-time bounds (values ≤ 0 unconstrained).
type App struct {
	Chain   chain.Chain
	Period  float64
	Latency float64
}

// Result is a joint mapping: one interval mapping per application, over
// pairwise-disjoint processor sets.
type Result struct {
	Mappings []mapping.Mapping
	Evals    []mapping.Eval
	// LogRel is the total log-reliability Σ_c log r_c: the log of the
	// probability that every application processes a data set
	// correctly.
	LogRel float64
}

// curve holds, for one app, the best log-reliability per processor
// budget (Value −Inf if infeasible) with its partition and replica
// counts for reconstruction.
type curve struct {
	minProcs int
	best     []exact.Pick // indexed by processor count
}

// newCurve returns the empty curve over budgets 0..p.
func newCurve(p int) curve {
	cv := curve{minProcs: math.MaxInt32, best: make([]exact.Pick, p+1)}
	for k := range cv.best {
		cv.best[k].Value = math.Inf(-1)
	}
	return cv
}

// buildCurve computes the app's exact R(k) curve for k = 0..p, one
// sequential exact.Sweep over its partitions. Each feasible partition
// of m intervals offers, at every budget k ≥ m, Algo-Alloc's value
// after k−m greedy steps: the one-replica sum plus the gains so far,
// flat once every interval is saturated.
func buildCurve(app App, pl platform.Platform, p int) (curve, error) {
	shards, err := exact.Sweep(context.Background(), app.Chain, pl, 1,
		func() curve { return newCurve(p) },
		func(cv *curve, g *exact.Greedy, parts interval.Partition, per, lat float64) {
			if (app.Period > 0 && per > app.Period) || (app.Latency > 0 && lat > app.Latency) {
				return
			}
			m := len(parts)
			cv.minProcs = min(cv.minProcs, m)
			val := g.LogRel()
			for k := m; k <= p; k++ {
				if k > m {
					if j, gain := g.Step(); j >= 0 {
						val += gain
					}
				}
				if val > cv.best[k].Value {
					cv.best[k].Set(val, parts, g)
				}
			}
		})
	if err != nil {
		return curve{}, err
	}
	cv := newCurve(p)
	for _, s := range shards {
		cv.minProcs = min(cv.minProcs, s.minProcs)
		for k, b := range s.best {
			if b.Value > cv.best[k].Value {
				cv.best[k] = b
			}
		}
	}
	if cv.minProcs == math.MaxInt32 {
		return curve{}, fmt.Errorf("%w: one application has no feasible partition", ErrInfeasible)
	}
	// R(k) must be monotone in k: a larger budget may always ignore
	// processors. (The per-partition curves are monotone; the max could
	// still dip where a partition becomes newly feasible — it cannot,
	// but enforce it for safety.)
	for k := 1; k <= p; k++ {
		if cv.best[k].Value < cv.best[k-1].Value {
			cv.best[k] = cv.best[k-1]
		}
	}
	return cv, nil
}

// Map computes the joint mapping of the applications on the shared
// homogeneous platform maximizing Σ_c log r_c subject to every
// application's own bounds.
func Map(apps []App, pl platform.Platform) (Result, error) {
	if len(apps) == 0 {
		return Result{}, errors.New("multichain: no applications")
	}
	if err := pl.Validate(); err != nil {
		return Result{}, err
	}
	if !pl.Homogeneous() {
		return Result{}, errors.New("multichain: Map requires a homogeneous platform")
	}
	p := pl.P()
	curves := make([]curve, len(apps))
	for i, app := range apps {
		cv, err := buildCurve(app, pl, p)
		if err != nil {
			return Result{}, err
		}
		curves[i] = cv
	}

	// Knapsack DP over processor budgets.
	const unset = -1
	F := make([][]float64, len(apps)+1)
	choice := make([][]int, len(apps)+1)
	for i := range F {
		F[i] = make([]float64, p+1)
		choice[i] = make([]int, p+1)
		for k := range F[i] {
			F[i][k] = math.Inf(-1)
			choice[i][k] = unset
		}
	}
	for k := 0; k <= p; k++ {
		F[0][k] = 0
	}
	for i, cv := range curves {
		for k := 0; k <= p; k++ {
			for ki := cv.minProcs; ki <= k; ki++ {
				if math.IsInf(cv.best[ki].Value, -1) || math.IsInf(F[i][k-ki], -1) {
					continue
				}
				if v := F[i][k-ki] + cv.best[ki].Value; v > F[i+1][k] {
					F[i+1][k] = v
					choice[i+1][k] = ki
				}
			}
		}
	}
	if math.IsInf(F[len(apps)][p], -1) {
		return Result{}, ErrInfeasible
	}

	// Reconstruct, handing out processor blocks low-to-high.
	budgets := make([]int, len(apps))
	k := p
	for i := len(apps); i >= 1; i-- {
		budgets[i-1] = choice[i][k]
		k -= budgets[i-1]
	}
	res := Result{LogRel: F[len(apps)][p]}
	next := 0
	for i, cv := range curves {
		pick := cv.best[budgets[i]]
		parts := interval.FromEnds(pick.Ends)
		mp := mapping.Mapping{Parts: parts, Procs: make([][]int, len(parts))}
		for j, q := range pick.Counts {
			for r := 0; r < q; r++ {
				mp.Procs[j] = append(mp.Procs[j], next)
				next++
			}
		}
		ev, err := mapping.Evaluate(apps[i].Chain, pl, mp)
		if err != nil {
			return Result{}, err
		}
		res.Mappings = append(res.Mappings, mp)
		res.Evals = append(res.Evals, ev)
	}
	return res, nil
}

// TotalFailProb converts the joint log-reliability into the probability
// that at least one application loses a given data set.
func (r Result) TotalFailProb() float64 { return failure.FromLogRel(r.LogRel) }

// ProcessorsOf returns the sorted processor set of application i.
func (r Result) ProcessorsOf(i int) []int {
	var out []int
	for _, ps := range r.Mappings[i].Procs {
		out = append(out, ps...)
	}
	sort.Ints(out)
	return out
}
