package dp

import (
	"context"
	"errors"
	"math"
	"sort"
	"time"

	"relpipe/internal/chain"
	"relpipe/internal/failure"
	"relpipe/internal/interval"
	"relpipe/internal/mapping"
	"relpipe/internal/obs"
	"relpipe/internal/par"
	"relpipe/internal/platform"
)

// ErrHeterogeneous is returned when a homogeneous-only algorithm is
// applied to a heterogeneous platform (the problem is NP-complete there,
// Theorem 5; use the heuristics instead).
var ErrHeterogeneous = errors.New("dp: algorithm requires a homogeneous platform")

// ErrInfeasible is returned when no mapping satisfies the constraints.
var ErrInfeasible = errors.New("dp: no feasible mapping")

// OptimizeReliability implements Algorithm 1: it returns the mapping of c
// onto the homogeneous platform pl that maximizes reliability, with no
// performance constraint.
func OptimizeReliability(c chain.Chain, pl platform.Platform) (mapping.Mapping, mapping.Eval, error) {
	return OptimizeReliabilityPeriodPar(context.Background(), c, pl, 0, 1)
}

// OptimizeReliabilityPeriodPar implements Algorithm 2: reliability-
// optimal mapping under the period bound P (P <= 0 disables the bound,
// reducing to Algorithm 1).
//
// F(i,k) is the best log-reliability of a mapping of the first i tasks
// onto exactly k processors; the recurrence tries every last interval
// (tasks j+1..i, 1-based) and every replication degree q ≤ K, keeping
// only intervals whose compute and boundary communication times respect
// the period bound.
//
// The per-interval candidate table — the log-reliability of every
// (first task, last task, replication degree) triple, the
// transcendental-math hot spot of the recurrence — is evaluated on up
// to par.Degree(parallelism) goroutines. Each table entry is an
// independent pure computation collected under its own index and the
// recurrence itself stays sequential, so the result is bit-identical
// for every degree.
func OptimizeReliabilityPeriodPar(ctx context.Context, c chain.Chain, pl platform.Platform, period float64, parallelism int) (mapping.Mapping, mapping.Eval, error) {
	if err := c.Validate(); err != nil {
		return mapping.Mapping{}, mapping.Eval{}, err
	}
	if err := pl.Validate(); err != nil {
		return mapping.Mapping{}, mapping.Eval{}, err
	}
	if !pl.Homogeneous() {
		return mapping.Mapping{}, mapping.Eval{}, ErrHeterogeneous
	}
	n := len(c)
	p := pl.P()
	k := pl.MaxReplicas
	if k > p {
		k = p
	}
	pre := chain.NewPrefix(c)

	// The candidate table: for every pair j < i (the interval of tasks
	// [j, i-1], 0-based) and every replication degree q in 1..k, the
	// interval's log-reliability, or NaN when it violates the period
	// bound. Pair (j, i) lives at triangular index i*(i-1)/2 + j; the
	// pair list is built sequentially (trivial next to the
	// transcendental work being parallelized) so workers just index it.
	pairs := make([][2]int, 0, n*(n+1)/2)
	for i := 1; i <= n; i++ {
		for j := 0; j < i; j++ {
			pairs = append(pairs, [2]int{j, i})
		}
	}
	tableStart := time.Now()
	table, err := par.Map(ctx, parallelism, len(pairs), func(idx int) ([]float64, error) {
		j, i := pairs[idx][0], pairs[idx][1]
		w := pre.Work(j, i-1)
		in := c.Out(j - 1)
		out := c.Out(i - 1)
		row := make([]float64, k)
		if period > 0 &&
			(pl.ComputeTime(0, w) > period ||
				pl.CommTime(in) > period || pl.CommTime(out) > period) {
			for q := range row {
				row[q] = math.NaN()
			}
			return row, nil
		}
		f := mapping.ReplicaFailProb(pl, 0, w, in, out)
		for q := 1; q <= k; q++ {
			row[q-1] = failure.LogRel(failure.Replicated(f, q))
		}
		return row, nil
	})
	if err != nil {
		return mapping.Mapping{}, mapping.Eval{}, err
	}
	obs.Stage(ctx, "dp.table", tableStart, int64(len(pairs)), nil)
	stageLogRel := func(j, i, q int) float64 {
		return table[i*(i-1)/2+j][q-1]
	}

	const unset = math.MaxInt32
	F := make([][]float64, n+1)
	fromJ := make([][]int, n+1) // previous task count
	fromQ := make([][]int, n+1) // replicas of the last interval
	for i := range F {
		F[i] = make([]float64, p+1)
		fromJ[i] = make([]int, p+1)
		fromQ[i] = make([]int, p+1)
		for kk := range F[i] {
			F[i][kk] = math.Inf(-1)
			fromJ[i][kk] = unset
			fromQ[i][kk] = unset
		}
	}
	F[0][0] = 0
	recStart := time.Now()
	for i := 1; i <= n; i++ {
		for j := 0; j < i; j++ {
			for q := 1; q <= k; q++ {
				s := stageLogRel(j, i, q)
				if math.IsNaN(s) {
					continue
				}
				for used := 0; used+q <= p; used++ {
					if math.IsInf(F[j][used], -1) {
						continue
					}
					cand := F[j][used] + s
					if cand > F[i][used+q] {
						F[i][used+q] = cand
						fromJ[i][used+q] = j
						fromQ[i][used+q] = q
					}
				}
			}
		}
	}

	obs.Stage(ctx, "dp.recurrence", recStart, int64(n), nil)

	bestK, bestLog := -1, math.Inf(-1)
	for kk := 1; kk <= p; kk++ {
		if F[n][kk] > bestLog {
			bestK, bestLog = kk, F[n][kk]
		}
	}
	if bestK < 0 {
		return mapping.Mapping{}, mapping.Eval{}, ErrInfeasible
	}

	// Reconstruct the partition and the replica counts backwards.
	var ends []int
	var counts []int
	i, kk := n, bestK
	for i > 0 {
		j, q := fromJ[i][kk], fromQ[i][kk]
		if j == unset {
			return mapping.Mapping{}, mapping.Eval{}, errors.New("dp: internal reconstruction error")
		}
		ends = append(ends, i-1)
		counts = append(counts, q)
		i, kk = j, kk-q
	}
	reverseInts(ends)
	reverseInts(counts)
	m := mapping.AssignSequential(interval.FromEnds(ends), counts)
	ev, err := mapping.Evaluate(c, pl, m)
	if err != nil {
		return mapping.Mapping{}, mapping.Eval{}, err
	}
	return m, ev, nil
}

func reverseInts(s []int) {
	for a, b := 0, len(s)-1; a < b; a, b = a+1, b-1 {
		s[a], s[b] = s[b], s[a]
	}
}

// PeriodCandidates returns the sorted distinct values the worst-case
// period of any interval mapping of c on pl can take: every interval
// compute time and every boundary communication time. The optimal period
// under any constraint is always one of these.
func PeriodCandidates(c chain.Chain, pl platform.Platform) []float64 {
	n := len(c)
	pre := chain.NewPrefix(c)
	set := make(map[float64]bool)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			set[pl.ComputeTime(0, pre.Work(i, j))] = true
		}
		set[pl.CommTime(c.Out(i))] = true
	}
	out := make([]float64, 0, len(set))
	for v := range set {
		// A zero candidate (the last task's empty output) is never an
		// achievable period — every interval has positive work — and
		// would collide with the "unconstrained" sentinel of
		// OptimizeReliabilityPeriodPar.
		if v > 0 {
			out = append(out, v)
		}
	}
	sort.Float64s(out)
	return out
}

// MinPeriodForReliabilityPar solves the converse problem of §5.2: the
// smallest achievable period such that some mapping has log-reliability
// at least minLogRel, found by binary search over PeriodCandidates with
// Algorithm 2 as the oracle. It returns the optimal mapping.
// Use minLogRel = -Inf for pure period minimization.
//
// Each Algorithm 2 oracle call runs its candidate table on up to
// par.Degree(parallelism) goroutines. The binary search itself is
// inherently sequential; its probes and result are bit-identical for
// every degree.
func MinPeriodForReliabilityPar(ctx context.Context, c chain.Chain, pl platform.Platform, minLogRel float64, parallelism int) (mapping.Mapping, mapping.Eval, error) {
	if !pl.Homogeneous() {
		return mapping.Mapping{}, mapping.Eval{}, ErrHeterogeneous
	}
	cands := PeriodCandidates(c, pl)
	ok := func(P float64) (mapping.Mapping, mapping.Eval, bool, error) {
		m, ev, err := OptimizeReliabilityPeriodPar(ctx, c, pl, P, parallelism)
		if err != nil {
			// Infeasibility at this probe just steers the search, but a
			// cancellation must abort it.
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				return mapping.Mapping{}, mapping.Eval{}, false, err
			}
			return mapping.Mapping{}, mapping.Eval{}, false, nil
		}
		return m, ev, ev.LogRel >= minLogRel, nil
	}
	lo, hi := 0, len(cands)-1
	if _, _, feasible, err := ok(cands[hi]); err != nil {
		return mapping.Mapping{}, mapping.Eval{}, err
	} else if !feasible {
		return mapping.Mapping{}, mapping.Eval{}, ErrInfeasible
	}
	for lo < hi {
		mid := (lo + hi) / 2
		feasible := false
		var err error
		if _, _, feasible, err = ok(cands[mid]); err != nil {
			return mapping.Mapping{}, mapping.Eval{}, err
		}
		if feasible {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	m, ev, _, err := ok(cands[lo])
	if err != nil {
		return mapping.Mapping{}, mapping.Eval{}, err
	}
	return m, ev, nil
}

// HeurLTable implements Algorithm 3: the partition of a chain into m
// intervals that cuts it after the m-1 tasks with the smallest output
// communication costs (ties broken towards earlier tasks), minimizing
// the total communication charged to the latency. It caches the
// communication ordering — the only m-independent work — so partitions
// for every interval count of one chain reuse a single O(n log n)
// sort. The (cost, index) comparator is a strict total order, so the
// ordering is unique and every Partition(m) is deterministic.
type HeurLTable struct {
	n      int
	byCost []int // task indices 0..n-2, cheapest output first
}

// NewHeurLTable sorts the candidate cut points of c once.
func NewHeurLTable(c chain.Chain) *HeurLTable {
	n := len(c)
	t := &HeurLTable{n: n}
	if n < 2 {
		return t
	}
	t.byCost = make([]int, n-1)
	for i := range t.byCost {
		t.byCost[i] = i
	}
	sort.Slice(t.byCost, func(a, b int) bool {
		oa, ob := c.Out(t.byCost[a]), c.Out(t.byCost[b])
		if oa != ob {
			return oa < ob
		}
		return t.byCost[a] < t.byCost[b]
	})
	return t
}

// Bytes returns the heap footprint of the table's ordering.
func (t *HeurLTable) Bytes() int64 { return int64(cap(t.byCost)) * 8 }

// Partition returns the Algorithm 3 partition into m intervals.
func (t *HeurLTable) Partition(m int) (interval.Partition, error) {
	if m < 1 || m > t.n {
		return nil, errors.New("dp: interval count out of range")
	}
	if m == 1 {
		return interval.Single(t.n), nil
	}
	ends := make([]int, 0, m)
	ends = append(ends, t.byCost[:m-1]...)
	sort.Ints(ends)
	ends = append(ends, t.n-1)
	return interval.FromEnds(ends), nil
}

// HeurPPartition implements Algorithm 4: the partition of c into m
// intervals minimizing the worst-case period max_j max(W_j/speed,
// o_{l_j}/bandwidth), computed by dynamic programming in O(n²m).
// speed and bandwidth scale compute and communication terms; pass 1, 1
// for the paper's unit-cost formulation. Callers that need partitions
// for several interval counts of one chain should build a HeurPTable
// once instead.
func HeurPPartition(c chain.Chain, m int, speed, bandwidth float64) (interval.Partition, error) {
	t, err := NewHeurPTable(c, m, speed, bandwidth)
	if err != nil {
		return nil, err
	}
	return t.Partition(m)
}

// HeurPTable is Algorithm 4's dynamic program solved once for every
// interval count up to maxM. The recurrence for k intervals only reads
// the k-1 column — never the target count — so a single O(n²·maxM)
// build serves every m ≤ maxM, with each Partition(m) bit-identical to
// a fresh HeurPPartition(c, m, speed, bandwidth) run. The search seed
// pool samples ~25 interval counts per instance; sharing the table
// removes the per-count DP rebuild that used to dominate its cost.
type HeurPTable struct {
	n, maxM int
	// g[j][k] = minimal period of the first j tasks split into k
	// intervals; cut[j][k] = size of the prefix before the last interval.
	g   [][]float64
	cut [][]int
}

// NewHeurPTable builds the shared Heur-P table for interval counts
// 1..maxM.
func NewHeurPTable(c chain.Chain, maxM int, speed, bandwidth float64) (*HeurPTable, error) {
	n := len(c)
	if maxM < 1 || maxM > n {
		return nil, errors.New("dp: interval count out of range")
	}
	if speed <= 0 || bandwidth <= 0 {
		return nil, errors.New("dp: non-positive speed or bandwidth")
	}
	pre := chain.NewPrefix(c)
	g := make([][]float64, n+1)
	cut := make([][]int, n+1)
	for j := range g {
		g[j] = make([]float64, maxM+1)
		cut[j] = make([]int, maxM+1)
		for kk := range g[j] {
			g[j][kk] = math.Inf(1)
			cut[j][kk] = -1
		}
	}
	g[0][0] = 0
	for j := 1; j <= n; j++ {
		outT := c.Out(j-1) / bandwidth
		gj, cutj := g[j], cut[j]
		// The last interval's load max(W/speed, outT) is independent of
		// the interval count, so the jp loop is outermost and the load
		// hoisted. For each fixed (j, kk) cell the jp candidates still
		// arrive in ascending order, so ties break exactly as in the
		// kk-outer form this replaced (first minimal jp wins).
		for jp := 0; jp < j; jp++ {
			inner := pre.Work(jp, j-1) / speed
			if outT > inner {
				inner = outT
			}
			gp := g[jp]
			kkMax := maxM
			if j < kkMax {
				kkMax = j
			}
			if jp+1 < kkMax {
				kkMax = jp + 1
			}
			for kk := 1; kk <= kkMax; kk++ {
				prev := gp[kk-1]
				if math.IsInf(prev, 1) {
					continue
				}
				cost := prev
				if inner > cost {
					cost = inner
				}
				if cost < gj[kk] {
					gj[kk] = cost
					cutj[kk] = jp
				}
			}
		}
	}
	return &HeurPTable{n: n, maxM: maxM, g: g, cut: cut}, nil
}

// Bytes returns the heap footprint of the table: its row headers and
// the float64 and int cells of every row.
func (t *HeurPTable) Bytes() int64 {
	b := int64(cap(t.g)+cap(t.cut)) * 24
	for j := range t.g {
		b += int64(cap(t.g[j])+cap(t.cut[j])) * 8
	}
	return b
}

// Partition materializes the optimal m-interval partition from the
// shared table.
func (t *HeurPTable) Partition(m int) (interval.Partition, error) {
	if m < 1 || m > t.maxM {
		return nil, errors.New("dp: interval count out of range")
	}
	if math.IsInf(t.g[t.n][m], 1) {
		return nil, ErrInfeasible
	}
	ends := make([]int, 0, m)
	j, kk := t.n, m
	for j > 0 {
		ends = append(ends, j-1)
		j, kk = t.cut[j][kk], kk-1
	}
	reverseInts(ends)
	return interval.FromEnds(ends), nil
}
