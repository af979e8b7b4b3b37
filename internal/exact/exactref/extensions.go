package exactref

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"relpipe/internal/chain"
	"relpipe/internal/cost"
	"relpipe/internal/failure"
	"relpipe/internal/interval"
	"relpipe/internal/mapping"
	"relpipe/internal/platform"
)

// MinCost is the per-partition reference of cost.Minimize: the §9 cost
// extension as an interval.Visit loop that recomputes every replica
// failure probability and runs its own Algo-Alloc greedy (minimalCounts)
// until the reliability floor is met. Same contract as cost.Minimize.
func MinCost(c chain.Chain, pl platform.Platform, costs []float64, minLogRel, period, latency float64) (cost.Solution, error) {
	if err := c.Validate(); err != nil {
		return cost.Solution{}, err
	}
	if err := pl.Validate(); err != nil {
		return cost.Solution{}, err
	}
	if !pl.Homogeneous() {
		return cost.Solution{}, errors.New("cost: Minimize requires homogeneous speed and failure rate (costs may differ)")
	}
	if len(costs) != pl.P() {
		return cost.Solution{}, fmt.Errorf("cost: %d costs for %d processors", len(costs), pl.P())
	}
	for u, cu := range costs {
		if cu < 0 {
			return cost.Solution{}, fmt.Errorf("cost: negative cost %v for processor %d", cu, u)
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

	n := len(c)
	bestCost := math.Inf(1)
	var bestParts interval.Partition
	var bestCounts []int
	interval.Visit(n, func(parts interval.Partition) bool {
		m := len(parts)
		if m > pl.P() {
			return true
		}
		// Period and latency are allocation-independent here.
		per, lat := 0.0, 0.0
		for j := range parts {
			w := pl.ComputeTime(0, parts.Work(c, j))
			o := pl.CommTime(parts.Out(c, j))
			per = math.Max(per, math.Max(w, o))
			lat += w + o
		}
		if period > 0 && per > period {
			return true
		}
		if latency > 0 && lat > latency {
			return true
		}
		counts, ok := minimalCounts(c, pl, parts, minLogRel)
		if !ok {
			return true
		}
		q := 0
		for _, k := range counts {
			q += k
		}
		if prefix[q] < bestCost {
			bestCost = prefix[q]
			bestParts = parts.Clone()
			bestCounts = append([]int(nil), counts...)
		}
		return true
	})
	if math.IsInf(bestCost, 1) {
		return cost.Solution{}, cost.ErrInfeasible
	}

	// Materialize with the cheapest processors.
	mp := mapping.Mapping{Parts: bestParts, Procs: make([][]int, len(bestParts))}
	next := 0
	for j, k := range bestCounts {
		for i := 0; i < k; i++ {
			mp.Procs[j] = append(mp.Procs[j], order[next])
			next++
		}
	}
	ev, err := mapping.Evaluate(c, pl, mp)
	if err != nil {
		return cost.Solution{}, err
	}
	return cost.Solution{Mapping: mp, Eval: ev, TotalCost: bestCost}, nil
}

// minimalCounts computes, for a fixed partition, the replica counts
// reaching minLogRel with the fewest processors: start with one replica
// per stage and repeatedly reinforce the stage with the best marginal
// log-reliability gain.
func minimalCounts(c chain.Chain, pl platform.Platform, parts interval.Partition, minLogRel float64) ([]int, bool) {
	m := len(parts)
	repFail := make([]float64, m)
	for j := range parts {
		repFail[j] = mapping.ReplicaFailProb(pl, 0, parts.Work(c, j), parts.In(c, j), parts.Out(c, j))
	}
	counts := make([]int, m)
	stageFail := make([]float64, m)
	logRel := 0.0
	for j := range counts {
		counts[j] = 1
		stageFail[j] = repFail[j]
		logRel += failure.LogRel(stageFail[j])
	}
	used := m
	for logRel < minLogRel {
		best, bestGain := -1, 0.0
		for j := 0; j < m; j++ {
			if counts[j] >= pl.MaxReplicas {
				continue
			}
			gain := failure.LogRel(stageFail[j]*repFail[j]) - failure.LogRel(stageFail[j])
			if gain > bestGain {
				best, bestGain = j, gain
			}
		}
		if best < 0 || used >= pl.P() {
			return nil, false // cannot reach the reliability floor
		}
		logRel += bestGain
		stageFail[best] *= repFail[best]
		counts[best]++
		used++
	}
	return counts, true
}

// SharedCurve is one application's R(k) curve on a shared platform
// (internal/multichain): per processor budget k, the best
// log-reliability under the application's bounds (−Inf where none)
// and the partition ends and replica counts reaching it.
type SharedCurve struct {
	MinProcs int
	LogRel   []float64
	Ends     [][]int
	Counts   [][]int
}

// Curve is the per-partition reference of multichain's curve builder:
// for the chain c with its own period and latency bounds (≤ 0
// unconstrained), every partition runs its own Algo-Alloc gain sequence
// and offers its value at every budget k = m..p.
func Curve(c chain.Chain, period, latency float64, pl platform.Platform, p int) (SharedCurve, error) {
	if err := c.Validate(); err != nil {
		return SharedCurve{}, err
	}
	n := len(c)
	cv := SharedCurve{
		MinProcs: math.MaxInt32,
		LogRel:   make([]float64, p+1),
		Ends:     make([][]int, p+1),
		Counts:   make([][]int, p+1),
	}
	for k := range cv.LogRel {
		cv.LogRel[k] = math.Inf(-1)
	}
	kMax := pl.MaxReplicas

	interval.Visit(n, func(parts interval.Partition) bool {
		m := len(parts)
		if m > p {
			return true
		}
		// Allocation-independent feasibility of the partition.
		per, lat := 0.0, 0.0
		for j := range parts {
			w := pl.ComputeTime(0, parts.Work(c, j))
			o := pl.CommTime(parts.Out(c, j))
			per = math.Max(per, math.Max(w, o))
			lat += w + o
		}
		if period > 0 && per > period {
			return true
		}
		if latency > 0 && lat > latency {
			return true
		}
		// Greedy gain sequence: value(k) for every k >= m at once.
		repFail := make([]float64, m)
		stageFail := make([]float64, m)
		counts := make([]int, m)
		val := 0.0
		for j := range parts {
			repFail[j] = mapping.ReplicaFailProb(pl, 0, parts.Work(c, j), parts.In(c, j), parts.Out(c, j))
			stageFail[j] = repFail[j]
			counts[j] = 1
			val += failure.LogRel(stageFail[j])
		}
		record := func(k int) {
			if val > cv.LogRel[k] {
				cv.LogRel[k] = val
				cv.Ends[k] = parts.Clone().Ends()
				cv.Counts[k] = append([]int(nil), counts...)
			}
		}
		if m < cv.MinProcs {
			cv.MinProcs = m
		}
		record(m)
		for k := m + 1; k <= p; k++ {
			best, bestGain := -1, math.Inf(-1)
			for j := 0; j < m; j++ {
				if counts[j] >= kMax {
					continue
				}
				gain := failure.LogRel(stageFail[j]*repFail[j]) - failure.LogRel(stageFail[j])
				if gain > bestGain {
					best, bestGain = j, gain
				}
			}
			if best < 0 {
				// Saturated at K replicas everywhere: the value stays
				// flat for all larger budgets.
				for kk := k; kk <= p; kk++ {
					record(kk)
				}
				break
			}
			counts[best]++
			stageFail[best] *= repFail[best]
			val += bestGain
			record(k)
		}
		return true
	})
	if cv.MinProcs == math.MaxInt32 {
		return SharedCurve{}, errors.New("exactref: no feasible partition")
	}
	// R(k) must be monotone in k: a larger budget may always ignore
	// processors.
	for k := 1; k <= p; k++ {
		if cv.LogRel[k] < cv.LogRel[k-1] {
			cv.LogRel[k] = cv.LogRel[k-1]
			cv.Ends[k] = cv.Ends[k-1]
			cv.Counts[k] = cv.Counts[k-1]
		}
	}
	return cv, nil
}
