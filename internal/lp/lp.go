package lp

import (
	"errors"
	"fmt"
	"math"
)

// Sense is the direction of a constraint row.
type Sense int

const (
	// LE means a·x ≤ b.
	LE Sense = iota
	// GE means a·x ≥ b.
	GE
	// EQ means a·x = b.
	EQ
)

// Status classifies the solver outcome.
type Status int

const (
	// Optimal: an optimal basic feasible solution was found.
	Optimal Status = iota
	// Infeasible: the constraints admit no solution.
	Infeasible
	// Unbounded: the objective can grow without limit.
	Unbounded
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// Solution is the solver output. X has one entry per structural variable;
// Obj is the objective value. X and Obj are only meaningful when Status
// is Optimal.
type Solution struct {
	Status Status
	X      []float64
	Obj    float64
}

// Problem is a linear program under construction. Create with NewProblem,
// add rows, then Solve.
type Problem struct {
	n    int
	obj  []float64
	rows [][]float64
	sns  []Sense
	rhs  []float64
}

// NewProblem creates a problem with n non-negative structural variables
// and the given maximization objective (length n).
func NewProblem(n int, obj []float64) (*Problem, error) {
	if n <= 0 {
		return nil, errors.New("lp: need at least one variable")
	}
	if len(obj) != n {
		return nil, fmt.Errorf("lp: objective has %d coefficients for %d variables", len(obj), n)
	}
	return &Problem{n: n, obj: append([]float64(nil), obj...)}, nil
}

// AddRow appends the constraint coefs·x (sense) rhs. coefs must have
// length n.
func (p *Problem) AddRow(coefs []float64, sense Sense, rhs float64) error {
	if len(coefs) != p.n {
		return fmt.Errorf("lp: row has %d coefficients for %d variables", len(coefs), p.n)
	}
	p.rows = append(p.rows, append([]float64(nil), coefs...))
	p.sns = append(p.sns, sense)
	p.rhs = append(p.rhs, rhs)
	return nil
}

// AddSparseRow appends a constraint given as a variable→coefficient map.
func (p *Problem) AddSparseRow(coefs map[int]float64, sense Sense, rhs float64) error {
	dense := make([]float64, p.n)
	for i, v := range coefs {
		if i < 0 || i >= p.n {
			return fmt.Errorf("lp: sparse row references variable %d of %d", i, p.n)
		}
		dense[i] = v
	}
	p.rows = append(p.rows, dense)
	p.sns = append(p.sns, sense)
	p.rhs = append(p.rhs, rhs)
	return nil
}

const eps = 1e-9

// Solve runs the two-phase simplex method and returns the outcome.
func (p *Problem) Solve() Solution {
	m := len(p.rows)
	n := p.n
	if m == 0 {
		// No constraints: optimum is 0 unless some objective
		// coefficient is positive (then unbounded).
		for _, c := range p.obj {
			if c > eps {
				return Solution{Status: Unbounded}
			}
		}
		return Solution{Status: Optimal, X: make([]float64, n)}
	}

	// Normalize to non-negative right-hand sides.
	rows := make([][]float64, m)
	sns := make([]Sense, m)
	rhs := make([]float64, m)
	for i := range p.rows {
		rows[i] = append([]float64(nil), p.rows[i]...)
		sns[i] = p.sns[i]
		rhs[i] = p.rhs[i]
		if rhs[i] < 0 {
			for j := range rows[i] {
				rows[i][j] = -rows[i][j]
			}
			rhs[i] = -rhs[i]
			switch sns[i] {
			case LE:
				sns[i] = GE
			case GE:
				sns[i] = LE
			}
		}
	}

	// Column layout: [0,n) structural, then one slack/surplus per
	// inequality, then one artificial per GE/EQ row.
	nSlack := 0
	for _, s := range sns {
		if s != EQ {
			nSlack++
		}
	}
	nArt := 0
	for _, s := range sns {
		if s != LE {
			nArt++
		}
	}
	total := n + nSlack + nArt
	artStart := n + nSlack

	tab := make([][]float64, m)
	basis := make([]int, m)
	slackCol := n
	artCol := artStart
	for i := 0; i < m; i++ {
		tab[i] = make([]float64, total+1)
		copy(tab[i], rows[i])
		tab[i][total] = rhs[i]
		switch sns[i] {
		case LE:
			tab[i][slackCol] = 1
			basis[i] = slackCol
			slackCol++
		case GE:
			tab[i][slackCol] = -1
			slackCol++
			tab[i][artCol] = 1
			basis[i] = artCol
			artCol++
		case EQ:
			tab[i][artCol] = 1
			basis[i] = artCol
			artCol++
		}
	}

	// Phase 1: maximize -Σ artificials.
	if nArt > 0 {
		cost := make([]float64, total)
		for j := artStart; j < total; j++ {
			cost[j] = -1
		}
		obj, ok := simplex(tab, basis, cost, total, -1)
		if !ok {
			// Phase 1 is always bounded; this cannot happen.
			return Solution{Status: Infeasible}
		}
		if obj < -1e-7 {
			return Solution{Status: Infeasible}
		}
		// Drive remaining basic artificials out of the basis.
		for i := 0; i < m; i++ {
			if basis[i] < artStart {
				continue
			}
			pivoted := false
			for j := 0; j < artStart; j++ {
				if math.Abs(tab[i][j]) > eps {
					pivot(tab, basis, i, j, total)
					pivoted = true
					break
				}
			}
			if !pivoted {
				// Redundant row: the artificial stays basic at
				// value 0; harmless because its column is barred
				// from phase 2.
				tab[i][total] = 0
			}
		}
	}

	// Phase 2: the real objective, artificial columns barred.
	cost := make([]float64, total)
	copy(cost, p.obj)
	if _, ok := simplex(tab, basis, cost, total, artStart); !ok {
		return Solution{Status: Unbounded}
	}

	x := make([]float64, n)
	for i, b := range basis {
		if b < n {
			x[b] = tab[i][total]
		}
	}
	objVal := 0.0
	for j, c := range p.obj {
		objVal += c * x[j]
	}
	return Solution{Status: Optimal, X: x, Obj: objVal}
}

// simplex maximizes cost·(all columns) over the current tableau with
// Bland's rule. barFrom, if >= 0, bars columns ≥ barFrom from entering
// (used to exclude artificials in phase 2). It returns the objective
// value and false if the problem is unbounded.
func simplex(tab [][]float64, basis []int, cost []float64, total, barFrom int) (float64, bool) {
	m := len(tab)
	// Reduced-cost row: z[j] = cost[j] - Σ_i cost[basis[i]]·tab[i][j].
	z := make([]float64, total+1)
	recompute := func() {
		copy(z, cost)
		z[total] = 0
		for i := 0; i < m; i++ {
			cb := cost[basis[i]]
			if cb == 0 {
				continue
			}
			for j := 0; j <= total; j++ {
				z[j] -= cb * tab[i][j]
			}
		}
	}
	recompute()
	limit := 50 * (m + total) // generous anti-runaway guard
	for iter := 0; iter < limit; iter++ {
		// Bland: entering column = smallest index with positive
		// reduced cost.
		enter := -1
		for j := 0; j < total; j++ {
			if barFrom >= 0 && j >= barFrom {
				break
			}
			if z[j] > eps {
				enter = j
				break
			}
		}
		if enter < 0 {
			return -z[total], true
		}
		// Ratio test; Bland tie-break on smallest basis variable.
		leave := -1
		best := math.Inf(1)
		for i := 0; i < m; i++ {
			if tab[i][enter] > eps {
				ratio := tab[i][total] / tab[i][enter]
				if ratio < best-eps || (ratio < best+eps && (leave < 0 || basis[i] < basis[leave])) {
					best = ratio
					leave = i
				}
			}
		}
		if leave < 0 {
			return 0, false // unbounded
		}
		pivot(tab, basis, leave, enter, total)
		// Update the reduced-cost row like a tableau row.
		f := z[enter]
		if f != 0 {
			for j := 0; j <= total; j++ {
				z[j] -= f * tab[leave][j]
			}
			z[enter] = 0
		}
	}
	// Safety net: recompute and accept the current point; with Bland's
	// rule this path is unreachable.
	recompute()
	return -z[total], true
}

// pivot makes column enter basic in row leave.
func pivot(tab [][]float64, basis []int, leave, enter, total int) {
	pr := tab[leave]
	pv := pr[enter]
	for j := 0; j <= total; j++ {
		pr[j] /= pv
	}
	pr[enter] = 1
	for i := range tab {
		if i == leave {
			continue
		}
		f := tab[i][enter]
		if f == 0 {
			continue
		}
		for j := 0; j <= total; j++ {
			tab[i][j] -= f * pr[j]
		}
		tab[i][enter] = 0
	}
	basis[leave] = enter
}
