package search

import (
	"math"
	"sort"

	"relpipe/internal/chain"
	"relpipe/internal/frontier"
	"relpipe/internal/mapping"
	"relpipe/internal/platform"
)

// Frontier approximates the Pareto-optimal (period, latency,
// reliability) trade-offs of an instance too large (or too
// heterogeneous) for the exact enumeration: it gathers the heuristic
// seed pool plus search-refined optima under a ladder of period bounds
// drawn from the pool's own period range, evaluates every candidate,
// and keeps the non-dominated ones, one per distinct triple
// (frontier.Distinct). Points carry the real metrics of
// their mappings; unlike the exact frontier they are a lower bound on
// the true surface, not the surface itself. Deterministic under the
// same contract as Optimize.
func Frontier(c chain.Chain, pl platform.Platform, opts Options) ([]frontier.Point, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if err := pl.Validate(); err != nil {
		return nil, err
	}
	opts.Period, opts.Latency = 0, 0
	opts = opts.defaults(len(c))
	prob := newProblem(c, pl, opts, maxReliability)

	seeds, _ := prob.seedPool(math.MaxInt)
	if len(seeds) == 0 {
		return nil, nil
	}
	var cands []frontier.Point
	for _, sc := range seeds {
		m := sc.st.mapping()
		cands = append(cands, point(m, mapping.EvaluateUnchecked(c, pl, m)))
	}

	// Refine under a ladder of period bounds spanning the seeds' period
	// range: each rung is one full (restarts × budget) search, so the
	// ladder is deliberately short.
	periods := map[float64]bool{}
	for _, cd := range cands {
		periods[cd.Period] = true
	}
	rungs := make([]float64, 0, len(periods))
	for pv := range periods {
		rungs = append(rungs, pv)
	}
	sort.Float64s(rungs)
	const maxRungs = 6
	if len(rungs) > maxRungs {
		sampled := make([]float64, 0, maxRungs)
		for i := 0; i < maxRungs; i++ {
			sampled = append(sampled, rungs[i*(len(rungs)-1)/(maxRungs-1)])
		}
		rungs = sampled
	}
	for _, bound := range rungs {
		ropts := opts
		ropts.Period = bound
		res, ok, err := Optimize(c, pl, ropts)
		if err != nil {
			return nil, err
		}
		if ok {
			cands = append(cands, point(res.M, res.Ev))
		}
	}
	return frontier.Distinct(cands), nil
}

// point records a candidate mapping with its metrics. Its replica
// counts are per interval; note that on heterogeneous platforms
// Point.Mapping()'s sequential re-assignment is only representative —
// the recorded metrics come from the actual mapping.
func point(m mapping.Mapping, ev mapping.Eval) frontier.Point {
	counts := make([]int, len(m.Procs))
	for j, ps := range m.Procs {
		counts[j] = len(ps)
	}
	return frontier.Point{
		Period:   ev.WorstPeriod,
		Latency:  ev.WorstLatency,
		FailProb: ev.FailProb,
		LogRel:   ev.LogRel,
		Ends:     m.Parts.Ends(),
		Counts:   counts,
	}
}
