package cost

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"relpipe/internal/chain"
	"relpipe/internal/exact"
	"relpipe/internal/interval"
	"relpipe/internal/mapping"
	"relpipe/internal/platform"
)

// ErrInfeasible is returned when no mapping meets all the constraints.
var ErrInfeasible = errors.New("cost: no feasible mapping")

// Solution is a cost-minimal mapping.
type Solution struct {
	Mapping   mapping.Mapping
	Eval      mapping.Eval
	TotalCost float64
}

// Minimize returns the cheapest mapping of c on pl with log-reliability
// at least minLogRel, worst-case period at most period and worst-case
// latency at most latency (bounds ≤ 0 unconstrained; minLogRel may be
// -Inf). costs[u] is the price of enrolling processor u; processors must
// share one speed and one failure rate (prices may differ freely).
func Minimize(c chain.Chain, pl platform.Platform, costs []float64, minLogRel, period, latency float64) (Solution, error) {
	return MinimizePar(context.Background(), c, pl, costs, minLogRel, period, latency, 1)
}

// MinimizePar is Minimize with the partition enumeration an exact.Sweep
// on up to par.Degree(parallelism) goroutines, cancelled by ctx. Each
// shard keeps the first strictly cheapest partition of its range;
// merging in shard order under the same strict comparison makes the
// answer identical at every degree.
func MinimizePar(ctx context.Context, c chain.Chain, pl platform.Platform, costs []float64, minLogRel, period, latency float64, parallelism int) (Solution, error) {
	if err := c.Validate(); err != nil {
		return Solution{}, err
	}
	if err := pl.Validate(); err != nil {
		return Solution{}, err
	}
	if !pl.Homogeneous() {
		return Solution{}, errors.New("cost: Minimize requires homogeneous speed and failure rate (costs may differ)")
	}
	if len(costs) != pl.P() {
		return Solution{}, fmt.Errorf("cost: %d costs for %d processors", len(costs), pl.P())
	}
	for u, cu := range costs {
		if cu < 0 {
			return Solution{}, fmt.Errorf("cost: negative cost %v for processor %d", cu, u)
		}
	}

	// Cheapest processors first; prefix sums give the optimal cost of
	// enrolling q processors.
	order := make([]int, pl.P())
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if costs[order[a]] != costs[order[b]] {
			return costs[order[a]] < costs[order[b]]
		}
		return order[a] < order[b]
	})
	prefix := make([]float64, pl.P()+1)
	for i, u := range order {
		prefix[i+1] = prefix[i] + costs[u]
	}

	// Per partition, Algo-Alloc's gain sequence from one replica per
	// interval reaches the floor with the fewest processors: the running
	// log-reliability is the one-replica sum plus each step's gain. A
	// best gain ≤ 0 cannot raise it, so the floor is out of reach.
	picks, err := exact.Sweep(ctx, c, pl, parallelism,
		func() exact.Pick { return exact.Pick{Value: math.Inf(1)} },
		func(best *exact.Pick, g *exact.Greedy, parts interval.Partition, per, lat float64) {
			if (period > 0 && per > period) || (latency > 0 && lat > latency) {
				return
			}
			q, logRel := len(parts), g.LogRel()
			for ; logRel < minLogRel; q++ {
				if q >= pl.P() {
					return
				}
				_, gain := g.Step()
				if gain <= 0 {
					return
				}
				logRel += gain
			}
			if prefix[q] < best.Value {
				best.Set(prefix[q], parts, g)
			}
		})
	if err != nil {
		return Solution{}, err
	}
	best := exact.Pick{Value: math.Inf(1)}
	for _, p := range picks {
		if p.Value < best.Value {
			best = p
		}
	}
	if math.IsInf(best.Value, 1) {
		return Solution{}, ErrInfeasible
	}

	// Materialize with the cheapest processors.
	parts := interval.FromEnds(best.Ends)
	mp := mapping.Mapping{Parts: parts, Procs: make([][]int, len(parts))}
	next := 0
	for j, k := range best.Counts {
		for i := 0; i < k; i++ {
			mp.Procs[j] = append(mp.Procs[j], order[next])
			next++
		}
	}
	ev, err := mapping.Evaluate(c, pl, mp)
	if err != nil {
		return Solution{}, err
	}
	return Solution{Mapping: mp, Eval: ev, TotalCost: best.Value}, nil
}
