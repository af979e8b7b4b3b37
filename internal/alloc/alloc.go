package alloc

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"relpipe/internal/chain"
	"relpipe/internal/failure"
	"relpipe/internal/interval"
	"relpipe/internal/mapping"
	"relpipe/internal/platform"
)

// ErrInfeasible is returned when some interval cannot receive any
// processor (not enough processors, or every candidate violates the
// period bound or is not alive).
var ErrInfeasible = errors.New("alloc: no feasible allocation")

// Cell is the half-open interval [Lo, Hi) of positive period bounds on
// which one GreedyHet run replays exactly: the same mapping or error,
// and the same Cell. Lo > 0 always, so no bound in a Cell is the
// unconstrained bound <= 0.
type Cell struct{ Lo, Hi float64 }

// Contains reports whether bound b lies in c.
func (c Cell) Contains(b float64) bool { return c.Lo <= b && b < c.Hi }

// AllBounds is the Cell of a run that no period bound can change.
var AllBounds = Cell{Lo: math.SmallestNonzeroFloat64, Hi: math.Inf(1)}

// GreedyHet implements the §7.2 allocation heuristic for general
// platforms under an optional period bound (periodBound <= 0 means
// unconstrained), using only the processors u with alive[u] true (a
// nil alive admits every processor):
//
//  1. processors are considered by increasing λ_u/s_u ("most reliable
//     first"; with the paper's uniform λ this is fastest first);
//  2. each processor in turn seeds the largest-work interval that has no
//     processor yet and that it can serve within the period bound;
//  3. the remaining processors go, one by one, to the feasible interval
//     with the largest reliability ratio, subject to the replication
//     bound K.
//
// It returns ErrInfeasible if some interval ends up with no processor.
//
// The run sees the period bound only through the tests
// ComputeTime(u, W_j) > periodBound, so the returned Cell certifies
// the bounds that replay it: Lo is the largest compute time that passed
// a test (SmallestNonzeroFloat64 if none did) and Hi the smallest that
// failed one (+Inf if none did). Any positive bound in [Lo, Hi) passes
// and fails the same tests, so it takes the same branches, evaluates
// the same tests next, and ends in the same mapping or error. An
// unconstrained run (periodBound <= 0) passes every test it makes and
// so reports [largest tested compute time, +Inf).
func GreedyHet(c chain.Chain, pl platform.Platform, parts interval.Partition, periodBound float64, alive []bool) (mapping.Mapping, Cell, error) {
	m := len(parts)
	p := pl.P()
	if p < m {
		return mapping.Mapping{}, AllBounds, fmt.Errorf("%w: %d intervals, %d processors", ErrInfeasible, m, p)
	}
	work := make([]float64, m)
	in := make([]float64, m)
	out := make([]float64, m)
	for j := range parts {
		work[j] = parts.Work(c, j)
		in[j] = parts.In(c, j)
		out[j] = parts.Out(c, j)
	}
	// The boundary-communication legs of a replica's failure probability
	// depend only on the interval, so their log-reliabilities hoist out
	// of the O(p·m) scoring loops; replicaFail folds them with the
	// processor-dependent compute leg in exactly ReplicaFailProb's
	// Serial order (fIn, fComp, fOut), so its value is bit-identical and
	// every greedy comparison below is unchanged. The search seed phase
	// calls GreedyHet once per interval count, which made these
	// transcendentals its dominant cost.
	lIn := make([]float64, m)
	lOut := make([]float64, m)
	for j := range parts {
		lIn[j] = failure.LogRel(failure.Prob(pl.LinkFailRate, pl.CommTime(in[j])))
		lOut[j] = failure.LogRel(failure.Prob(pl.LinkFailRate, pl.CommTime(out[j])))
	}
	replicaFail := func(j, u int) float64 {
		fComp := failure.Prob(pl.Procs[u].FailRate, pl.ComputeTime(u, work[j]))
		return -math.Expm1(lIn[j] + failure.LogRel(fComp) + lOut[j])
	}
	cell := AllBounds
	feasible := func(j, u int) bool {
		if t := pl.ComputeTime(u, work[j]); periodBound > 0 && t > periodBound {
			if t < cell.Hi {
				cell.Hi = t
			}
			return false
		} else if t > cell.Lo {
			cell.Lo = t
		}
		return alive == nil || alive[u]
	}

	order := make([]int, p)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ra := pl.Procs[order[a]].FailRate / pl.Procs[order[a]].Speed
		rb := pl.Procs[order[b]].FailRate / pl.Procs[order[b]].Speed
		if ra != rb {
			return ra < rb
		}
		return order[a] < order[b]
	})

	procsOf := make([][]int, m)
	stageFail := make([]float64, m)
	logRelStage := make([]float64, m) // memoized failure.LogRel(stageFail[j])
	for j := range stageFail {
		stageFail[j] = 1
		logRelStage[j] = failure.LogRel(1)
	}
	seeded := 0
	used := make([]bool, p)

	// Phase 1: seed every interval, longest feasible interval first.
	for _, u := range order {
		if seeded == m {
			break
		}
		best, bestWork := -1, -1.0
		for j := 0; j < m; j++ {
			if len(procsOf[j]) > 0 || !feasible(j, u) {
				continue
			}
			if work[j] > bestWork {
				best, bestWork = j, work[j]
			}
		}
		if best < 0 {
			continue // this processor cannot seed anything; maybe a later one can
		}
		procsOf[best] = append(procsOf[best], u)
		stageFail[best] = replicaFail(best, u)
		logRelStage[best] = failure.LogRel(stageFail[best])
		used[u] = true
		seeded++
	}
	if seeded < m {
		return mapping.Mapping{}, cell, fmt.Errorf("%w: %d of %d intervals could not be seeded", ErrInfeasible, m-seeded, m)
	}

	// Phase 2: hand out the remaining processors by reliability ratio.
	k := pl.MaxReplicas
	for _, u := range order {
		if used[u] {
			continue
		}
		best, bestGain, bestF := -1, math.Inf(-1), 1.0
		for j := 0; j < m; j++ {
			// -logRelStage[j] bounds the gain of ANY replica for j (it
			// is the gain of driving the stage's failure to zero, and
			// log1p(-stageFail*f) <= 0 makes the computed gain <= the
			// computed bound, rounding included) — so intervals whose
			// bound cannot beat the running best skip the scoring
			// transcendentals without ever changing the argmax.
			if len(procsOf[j]) >= k || -logRelStage[j] <= bestGain || !feasible(j, u) {
				continue
			}
			f := replicaFail(j, u)
			gain := failure.LogRel(stageFail[j]*f) - logRelStage[j]
			if gain > bestGain {
				best, bestGain, bestF = j, gain, f
			}
		}
		if best < 0 {
			continue // nothing accepts this processor
		}
		procsOf[best] = append(procsOf[best], u)
		stageFail[best] *= bestF
		logRelStage[best] = failure.LogRel(stageFail[best])
		used[u] = true
	}

	return mapping.Mapping{Parts: parts.Clone(), Procs: procsOf}, cell, nil
}
