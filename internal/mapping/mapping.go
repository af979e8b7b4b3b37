package mapping

import (
	"fmt"
	"math"

	"relpipe/internal/chain"
	"relpipe/internal/failure"
	"relpipe/internal/interval"
	"relpipe/internal/platform"
)

// Mapping assigns every interval of the partition to a set of processors
// (its replicas). Procs[j] lists the processor indices executing interval
// j; a processor executes at most one interval (§2.6).
type Mapping struct {
	Parts interval.Partition `json:"parts"`
	Procs [][]int            `json:"procs"`
}

// Validate checks the §2.6 constraints: the partition tiles the chain,
// every interval has between 1 and K replicas, processor indices are in
// range and no processor executes two intervals.
func (m Mapping) Validate(c chain.Chain, pl platform.Platform) error {
	if err := m.Parts.Validate(len(c)); err != nil {
		return err
	}
	if len(m.Procs) != len(m.Parts) {
		return fmt.Errorf("mapping: %d processor sets for %d intervals", len(m.Procs), len(m.Parts))
	}
	used := make(map[int]bool)
	for j, procs := range m.Procs {
		if len(procs) == 0 {
			return fmt.Errorf("mapping: interval %d has no processor", j)
		}
		if len(procs) > pl.MaxReplicas {
			return fmt.Errorf("mapping: interval %d has %d replicas, K=%d", j, len(procs), pl.MaxReplicas)
		}
		for _, u := range procs {
			if u < 0 || u >= pl.P() {
				return fmt.Errorf("mapping: interval %d uses invalid processor %d", j, u)
			}
			if used[u] {
				return fmt.Errorf("mapping: processor %d assigned to several intervals", u)
			}
			used[u] = true
		}
	}
	return nil
}

// Clone returns a deep copy of the mapping.
func (m Mapping) Clone() Mapping {
	out := Mapping{Parts: m.Parts.Clone(), Procs: make([][]int, len(m.Procs))}
	for j, ps := range m.Procs {
		out.Procs[j] = append([]int(nil), ps...)
	}
	return out
}

// Mask strips the replicas of dead processors (alive[u] == false),
// keeping each interval's surviving replicas in order. whole reports
// that every interval still holds a survivor; degraded reports that
// something was stripped. The masked mapping shares nothing with m.
func (m Mapping) Mask(alive []bool) (masked Mapping, whole, degraded bool) {
	masked = Mapping{Parts: m.Parts.Clone(), Procs: make([][]int, len(m.Procs))}
	whole = true
	for j, ps := range m.Procs {
		keep := make([]int, 0, len(ps))
		for _, u := range ps {
			if alive[u] {
				keep = append(keep, u)
			} else {
				degraded = true
			}
		}
		whole = whole && len(keep) > 0
		masked.Procs[j] = keep
	}
	return masked, whole, degraded
}

// AssignSequential builds a mapping from a partition and per-interval
// replica counts by handing out processors 0, 1, 2, … in order. On a
// homogeneous platform the identity of processors is irrelevant, so this
// is how the dynamic programs materialize their solutions.
func AssignSequential(parts interval.Partition, counts []int) Mapping {
	m := Mapping{Parts: parts.Clone(), Procs: make([][]int, len(parts))}
	next := 0
	for j, q := range counts {
		for i := 0; i < q; i++ {
			m.Procs[j] = append(m.Procs[j], next)
			next++
		}
	}
	return m
}

// ReplicaFailProb returns the failure probability of a single replica of
// an interval on processor u: the serial composition of the incoming
// communication, the computation, and the outgoing communication
// (the inner term 1 - rcomm,in · r_{u,I} · rcomm,out of Eq. 9).
// Boundary intervals pass in = 0 or out = 0.
func ReplicaFailProb(pl platform.Platform, u int, work, in, out float64) float64 {
	fIn := failure.Prob(pl.LinkFailRate, pl.CommTime(in))
	fComp := failure.Prob(pl.Procs[u].FailRate, pl.ComputeTime(u, work))
	fOut := failure.Prob(pl.LinkFailRate, pl.CommTime(out))
	return failure.Serial(fIn, fComp, fOut)
}

// StageFailProb returns the failure probability of a replicated interval:
// the parallel composition of its replicas' failure probabilities.
func StageFailProb(pl platform.Platform, procs []int, work, in, out float64) float64 {
	f := 1.0
	for _, u := range procs {
		f *= ReplicaFailProb(pl, u, work, in, out)
	}
	return f
}

// ExpectedCost computes ec(I, P_I) of Eq. (3): the expected computation
// time of an interval of the given work on the processor set procs,
// conditioned on at least one replica succeeding. Replicas are ordered by
// decreasing speed; the term for replica u covers the event "the u-1
// fastest replicas fail and replica u succeeds". If every replica fails
// with probability 1 the expectation is undefined and +Inf is returned.
//
// Following Eq. (3), only computation failures enter the expectation (the
// communications appear in the reliability, Eq. 9, not in the timing).
func ExpectedCost(pl platform.Platform, procs []int, work float64) float64 {
	return expectedCostOrdered(pl, append([]int(nil), procs...), work)
}

// expectedCostOrdered is ExpectedCost's core on a caller-owned scratch
// copy of the processor set, reordered in place — the incremental
// evaluator's zero-allocation path. The sort is an insertion sort:
// replica sets are tiny (≤ K) and (speed desc, index asc) is a strict
// total order, so the permutation — and every floating-point operation
// downstream — matches the sort.Slice it replaced exactly.
func expectedCostOrdered(pl platform.Platform, order []int, work float64) float64 {
	for i := 1; i < len(order); i++ {
		u := order[i]
		su := pl.Procs[u].Speed
		j := i - 1
		for j >= 0 {
			v := order[j]
			if sv := pl.Procs[v].Speed; sv > su || (sv == su && v < u) {
				break // v sorts before u
			}
			order[j+1] = v
			j--
		}
		order[j+1] = u
	}
	num := 0.0
	prefixFail := 1.0 // Π_{v<u} (1 - r_v)
	for _, u := range order {
		fu := failure.Prob(pl.Procs[u].FailRate, pl.ComputeTime(u, work))
		num += pl.ComputeTime(u, work) * (1 - fu) * prefixFail
		prefixFail *= fu
	}
	denom := 1 - prefixFail // 1 - Π (1 - r_u)
	if denom <= 0 {
		return math.Inf(1)
	}
	return num / denom
}

// WorstCost computes wc(I, P_I) of Eq. (4): the computation time on the
// slowest replica.
func WorstCost(pl platform.Platform, procs []int, work float64) float64 {
	slowest := math.Inf(1)
	for _, u := range procs {
		if s := pl.Procs[u].Speed; s < slowest {
			slowest = s
		}
	}
	return work / slowest
}

// StageEval reports the per-interval quantities entering Eqs. (5)–(9).
type StageEval struct {
	Work      float64 // W_j
	In, Out   float64 // boundary data sizes (0 at the chain ends)
	FailProb  float64 // stage failure probability (Eq. 9 inner product)
	ExpCost   float64 // ec(I_j, P_j), Eq. (3)
	WorstCost float64 // wc(I_j, P_j), Eq. (4)
}

// Eval aggregates every §4 objective for one mapping.
type Eval struct {
	LogRel       float64 // log of Eq. (9); compare mappings with this
	FailProb     float64 // 1 - reliability, the quantity plotted in Figs. 7/9/11/13/15
	ExpLatency   float64 // EL, Eq. (5)
	WorstLatency float64 // WL, Eq. (7)
	ExpPeriod    float64 // EP, Eq. (6)
	WorstPeriod  float64 // WP, Eq. (8)
	Stages       []StageEval
}

// Reliability returns 1 - FailProb, for display.
func (e Eval) Reliability() float64 { return 1 - e.FailProb }

// Evaluate computes every objective of §4 for a valid mapping.
func Evaluate(c chain.Chain, pl platform.Platform, m Mapping) (Eval, error) {
	if err := m.Validate(c, pl); err != nil {
		return Eval{}, err
	}
	return EvaluateUnchecked(c, pl, m), nil
}

// EvaluateUnchecked is Evaluate without the Validate pass, for callers
// that construct mappings valid by construction and evaluate them in a
// hot loop (the local-search engine proposes thousands of neighbor
// mappings per solve; re-validating each would dominate the iteration
// cost). The numbers are bit-identical to Evaluate's.
//
// EvaluateUnchecked shares its per-interval and aggregation code with
// the incremental Evaluator (eval.go), which keeps the full pass the
// reference oracle the delta path is checked against.
func EvaluateUnchecked(c chain.Chain, pl platform.Platform, m Mapping) Eval {
	terms := make([]stageTerm, len(m.Parts))
	var order []int
	for j := range terms {
		order = computeTerm(&terms[j], c, pl, m, j, order)
	}
	ev := aggregate(terms)
	ev.Stages = make([]StageEval, len(terms))
	for j := range terms {
		ev.Stages[j] = terms[j].StageEval
	}
	return ev
}

// MeetsBounds reports whether the evaluation satisfies the given period
// and latency bounds using the worst-case metrics (the real-time
// guarantee; on homogeneous platforms worst-case and expected coincide,
// §5). A bound of 0 or below means "unconstrained".
func (e Eval) MeetsBounds(period, latency float64) bool {
	if period > 0 && e.WorstPeriod > period {
		return false
	}
	if latency > 0 && e.WorstLatency > latency {
		return false
	}
	return true
}

// String renders the evaluation on one line.
func (e Eval) String() string {
	return fmt.Sprintf("eval{fail=%.3g EL=%.4g WL=%.4g EP=%.4g WP=%.4g m=%d}",
		e.FailProb, e.ExpLatency, e.WorstLatency, e.ExpPeriod, e.WorstPeriod, len(e.Stages))
}

// String renders the mapping as interval->processors pairs.
func (m Mapping) String() string {
	s := ""
	for j, iv := range m.Parts {
		if j > 0 {
			s += " "
		}
		s += fmt.Sprintf("[%d..%d]->%v", iv.First, iv.Last, m.Procs[j])
	}
	return s
}
