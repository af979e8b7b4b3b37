// Package exactref is the reference oracle of the homogeneous exact
// solver: the per-partition enumeration the table-driven kernel in
// internal/exact replaced, and the allocation algorithms it was built
// from. For every partition Profiles builds Algo-Alloc's mapping with
// Greedy and scores it with a full mapping.Evaluate, so it shares no
// code with the kernel's term table and fold. Differential tests and
// cmd/bench compare the kernel against it; shipped packages never link
// it (CI checks).
//
// Greedy is the paper's Algo-Alloc (§5.5), optimal on homogeneous
// platforms (Theorem 4); BruteForce tries every allocation and
// validates Greedy on small instances. MinCost and Curve are the
// per-partition loops of the two other exact.Sweep callers, the
// min-cost solver of internal/cost and the shared-platform curves of
// internal/multichain, each with its own greedy. Pareto is the
// all-pairs dominance filter that frontier.Front replaced. OptimalHetPar
// is the exhaustive heterogeneous optimum (every partition, every
// processor assignment) that the search engine, the §7 heuristics and
// the §6 hardness gadget are checked against on small instances.
package exactref

import (
	"errors"
	"fmt"
	"math"

	"relpipe/internal/chain"
	"relpipe/internal/exact"
	"relpipe/internal/failure"
	"relpipe/internal/interval"
	"relpipe/internal/mapping"
	"relpipe/internal/platform"
)

// ErrInfeasible is returned when some interval cannot receive a
// processor: there are fewer processors than intervals.
var ErrInfeasible = errors.New("exactref: no feasible allocation")

// Profiles enumerates every partition of c with at most P intervals,
// sequentially in Visit order, and returns its profile: Greedy's
// allocation scored by mapping.Evaluate. The platform must be
// homogeneous.
func Profiles(c chain.Chain, pl platform.Platform) ([]exact.Profile, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if err := pl.Validate(); err != nil {
		return nil, err
	}
	if !pl.Homogeneous() {
		return nil, errors.New("exactref: heterogeneous platform")
	}
	var out []exact.Profile
	interval.Visit(len(c), func(parts interval.Partition) bool {
		if len(parts) > pl.P() {
			return true
		}
		m, err := Greedy(c, pl, parts)
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
		out = append(out, exact.Profile{
			Ends:    parts.Clone().Ends(),
			Period:  ev.WorstPeriod,
			Latency: ev.WorstLatency,
			LogRel:  ev.LogRel,
			Counts:  counts,
		})
		return true
	})
	return out, nil
}

// Greedy implements Algo-Alloc on a homogeneous platform: first one
// processor per interval, then repeatedly grant one more replica to the
// interval with the largest reliability ratio
//
//	(reliability with one more replica) / (current reliability),
//
// equivalently the largest log-reliability gain. By Theorem 4 the result
// maximizes the mapping's reliability for the given partition.
// It returns ErrInfeasible if there are fewer processors than intervals.
func Greedy(c chain.Chain, pl platform.Platform, parts interval.Partition) (mapping.Mapping, error) {
	if !pl.Homogeneous() {
		return mapping.Mapping{}, errors.New("exactref: Greedy requires a homogeneous platform; use alloc.GreedyHet")
	}
	m := len(parts)
	p := pl.P()
	if p < m {
		return mapping.Mapping{}, fmt.Errorf("%w: %d intervals, %d processors", ErrInfeasible, m, p)
	}
	// Per-interval single-replica failure probability; processor identity
	// is irrelevant on a homogeneous platform.
	repFail := make([]float64, m)
	for j := range parts {
		repFail[j] = mapping.ReplicaFailProb(pl, 0, parts.Work(c, j), parts.In(c, j), parts.Out(c, j))
	}
	counts := make([]int, m)
	stageFail := make([]float64, m) // current Π of replica failures
	for j := range counts {
		counts[j] = 1
		stageFail[j] = repFail[j]
	}
	remaining := p - m
	k := pl.MaxReplicas
	for remaining > 0 {
		best, bestGain := -1, math.Inf(-1)
		for j := 0; j < m; j++ {
			if counts[j] >= k {
				continue
			}
			gain := failure.LogRel(stageFail[j]*repFail[j]) - failure.LogRel(stageFail[j])
			if gain > bestGain {
				best, bestGain = j, gain
			}
		}
		if best < 0 {
			break // every interval is already at K replicas
		}
		counts[best]++
		stageFail[best] *= repFail[best]
		remaining--
	}
	return mapping.AssignSequential(parts, counts), nil
}

// BruteForce exhaustively searches the reliability-optimal allocation for
// a fixed partition by trying every assignment of processors to intervals
// (each interval gets 1..K processors, a processor serves at most one
// interval). Exponential; it validates Greedy on small instances.
func BruteForce(c chain.Chain, pl platform.Platform, parts interval.Partition) (mapping.Mapping, error) {
	m := len(parts)
	p := pl.P()
	if p < m {
		return mapping.Mapping{}, ErrInfeasible
	}
	if p > 10 {
		return mapping.Mapping{}, errors.New("exactref: BruteForce limited to p <= 10")
	}
	bestLog := math.Inf(-1)
	var best mapping.Mapping
	assign := make([]int, p) // assign[u] = interval of processor u, or -1
	var rec func(u int)
	rec = func(u int) {
		if u == p {
			counts := make([]int, m)
			for _, j := range assign {
				if j >= 0 {
					counts[j]++
				}
			}
			for _, q := range counts {
				if q == 0 {
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
			if ev.LogRel > bestLog {
				bestLog = ev.LogRel
				best = mp.Clone()
				best.Parts = parts.Clone()
			}
			return
		}
		assign[u] = -1
		rec(u + 1)
		for j := 0; j < m; j++ {
			assign[u] = j
			rec(u + 1)
		}
		assign[u] = -1
	}
	rec(0)
	if math.IsInf(bestLog, -1) {
		return mapping.Mapping{}, ErrInfeasible
	}
	return best, nil
}

// Pareto is the all-pairs dominance filter frontier.Front replaced: it
// keeps every profile no other profile dominates (period ≤, latency ≤
// and logRel ≥, with at least one strict), in input order, comparing
// each profile against all the others.
func Pareto(ps []exact.Profile) []exact.Profile {
	var out []exact.Profile
	for i, a := range ps {
		dominated := false
		for j, b := range ps {
			if i == j {
				continue
			}
			if b.Period <= a.Period && b.Latency <= a.Latency && b.LogRel >= a.LogRel &&
				(b.Period < a.Period || b.Latency < a.Latency || b.LogRel > a.LogRel) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, a)
		}
	}
	return out
}
