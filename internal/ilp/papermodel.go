package ilp

import (
	"errors"
	"math"
	"sort"

	"relpipe/internal/chain"
	"relpipe/internal/failure"
	"relpipe/internal/interval"
	"relpipe/internal/lp"
	"relpipe/internal/mapping"
	"relpipe/internal/platform"
)

// ErrInfeasible is returned when the §5.4 program has no solution under
// the given bounds.
var ErrInfeasible = errors.New("ilp: no feasible mapping")

// PaperModel is the integer program of §5.4: binary variables a_{i,j,k}
// select "the interval of tasks i..j replicated k times"; the objective
// maximizes the log-reliability of the mapping.
//
// Two deliberate deviations from the paper's text, both documented in
// DESIGN.md: (1) variables violating the period bound are simply not
// created (equivalent to, and smaller than, the per-variable period
// constraints); (2) the latency row charges each interval its compute
// time plus its outgoing communication time, matching Eq. (5) — the
// paper's ILP text omits the communication term, which contradicts its
// own latency definition.
type PaperModel struct {
	prob  *Problem
	vars  []paperVar
	chain chain.Chain
	plat  platform.Platform
}

type paperVar struct {
	i, j, k int // 0-based inclusive task range, k replicas
}

// BuildPaper constructs the §5.4 program for a homogeneous platform with
// bounds period and latency (<= 0 for unconstrained).
func BuildPaper(c chain.Chain, pl platform.Platform, period, latency float64) (*PaperModel, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if err := pl.Validate(); err != nil {
		return nil, err
	}
	if !pl.Homogeneous() {
		return nil, errors.New("ilp: the §5.4 program models homogeneous platforms")
	}
	n := len(c)
	p := pl.P()
	kMax := pl.MaxReplicas
	if kMax > p {
		kMax = p
	}
	pre := chain.NewPrefix(c)

	var vars []paperVar
	var objs []float64
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			w := pre.Work(i, j)
			in := c.Out(i - 1)
			out := c.Out(j)
			if period > 0 {
				if pl.ComputeTime(0, w) > period ||
					pl.CommTime(in) > period || pl.CommTime(out) > period {
					continue
				}
			}
			f := mapping.ReplicaFailProb(pl, 0, w, in, out)
			for k := 1; k <= kMax; k++ {
				vars = append(vars, paperVar{i, j, k})
				objs = append(objs, failure.LogRel(failure.Replicated(f, k)))
			}
		}
	}
	if len(vars) == 0 {
		return nil, ErrInfeasible
	}
	// Scale the objective to O(1): log-reliabilities can be ~1e-12 and
	// would drown in the solver's tolerances. Scaling by a positive
	// constant preserves the argmax.
	maxAbs := 0.0
	for _, o := range objs {
		if a := math.Abs(o); a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs > 0 {
		for i := range objs {
			objs[i] /= maxAbs
		}
	}

	prob, err := NewProblem(len(vars), objs, nil)
	if err != nil {
		return nil, err
	}
	// Each task is covered by exactly one selected interval.
	for t := 0; t < n; t++ {
		row := map[int]float64{}
		for v, pv := range vars {
			if pv.i <= t && t <= pv.j {
				row[v] = 1
			}
		}
		if err := prob.AddSparseRow(row, lp.EQ, 1); err != nil {
			return nil, err
		}
	}
	// At most p processors in total.
	procRow := map[int]float64{}
	for v, pv := range vars {
		procRow[v] = float64(pv.k)
	}
	if err := prob.AddSparseRow(procRow, lp.LE, float64(p)); err != nil {
		return nil, err
	}
	// Latency: Σ (compute + outgoing comm) over selected intervals.
	if latency > 0 {
		row := map[int]float64{}
		for v, pv := range vars {
			row[v] = pl.ComputeTime(0, pre.Work(pv.i, pv.j)) + pl.CommTime(c.Out(pv.j))
		}
		if err := prob.AddSparseRow(row, lp.LE, latency); err != nil {
			return nil, err
		}
	}
	return &PaperModel{prob: prob, vars: vars, chain: c, plat: pl}, nil
}

// Solve runs branch and bound and decodes the winner into a mapping.
func (m *PaperModel) Solve() (mapping.Mapping, mapping.Eval, error) {
	sol := m.prob.Solve()
	switch sol.Status {
	case Infeasible:
		return mapping.Mapping{}, mapping.Eval{}, ErrInfeasible
	case Unbounded:
		return mapping.Mapping{}, mapping.Eval{}, errors.New("ilp: unbounded paper model (invalid inputs)")
	case NodeLimit:
		if sol.X == nil {
			return mapping.Mapping{}, mapping.Eval{}, errors.New("ilp: node limit reached without incumbent")
		}
	}
	type pick struct{ i, j, k int }
	var picks []pick
	for v, x := range sol.X {
		if x > 0.5 {
			pv := m.vars[v]
			picks = append(picks, pick{pv.i, pv.j, pv.k})
		}
	}
	sort.Slice(picks, func(a, b int) bool { return picks[a].i < picks[b].i })
	ends := make([]int, len(picks))
	counts := make([]int, len(picks))
	for idx, pk := range picks {
		ends[idx] = pk.j
		counts[idx] = pk.k
	}
	mp := mapping.AssignSequential(interval.FromEnds(ends), counts)
	ev, err := mapping.Evaluate(m.chain, m.plat, mp)
	if err != nil {
		return mapping.Mapping{}, mapping.Eval{}, err
	}
	return mp, ev, nil
}
