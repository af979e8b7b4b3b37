package ilp

import (
	"container/heap"
	"errors"
	"fmt"
	"math"

	"relpipe/internal/lp"
)

// Status classifies the solver outcome.
type Status int

const (
	// Optimal: a provably optimal integer solution was found.
	Optimal Status = iota
	// Infeasible: no integer point satisfies the constraints.
	Infeasible
	// Unbounded: the relaxation is unbounded.
	Unbounded
	// NodeLimit: the node budget was exhausted before proving
	// optimality; Solution.X holds the incumbent if any.
	NodeLimit
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case NodeLimit:
		return "node-limit"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// Solution is the solver output.
type Solution struct {
	Status Status
	X      []float64
	Obj    float64
	Nodes  int // branch-and-bound nodes explored
}

// Problem is a maximization integer program: like lp.Problem, plus a
// per-variable integrality flag. Integer variables must be bounded by the
// constraints (the solver branches within the bounds the relaxation
// yields).
type Problem struct {
	n       int
	obj     []float64
	rows    []rowSpec
	integer []bool
}

type rowSpec struct {
	coefs []float64
	sense lp.Sense
	rhs   float64
}

// NewProblem creates an integer program with n non-negative variables,
// the given maximization objective, and integrality flags (nil means all
// variables are integer).
func NewProblem(n int, obj []float64, integer []bool) (*Problem, error) {
	if n <= 0 {
		return nil, errors.New("ilp: need at least one variable")
	}
	if len(obj) != n {
		return nil, fmt.Errorf("ilp: objective has %d coefficients for %d variables", len(obj), n)
	}
	if integer == nil {
		integer = make([]bool, n)
		for i := range integer {
			integer[i] = true
		}
	}
	if len(integer) != n {
		return nil, fmt.Errorf("ilp: integrality vector has %d entries for %d variables", len(integer), n)
	}
	return &Problem{
		n:       n,
		obj:     append([]float64(nil), obj...),
		integer: append([]bool(nil), integer...),
	}, nil
}

// AddRow appends a dense constraint.
func (p *Problem) AddRow(coefs []float64, sense lp.Sense, rhs float64) error {
	if len(coefs) != p.n {
		return fmt.Errorf("ilp: row has %d coefficients for %d variables", len(coefs), p.n)
	}
	p.rows = append(p.rows, rowSpec{append([]float64(nil), coefs...), sense, rhs})
	return nil
}

// AddSparseRow appends a constraint given as a variable→coefficient map.
func (p *Problem) AddSparseRow(coefs map[int]float64, sense lp.Sense, rhs float64) error {
	dense := make([]float64, p.n)
	for i, v := range coefs {
		if i < 0 || i >= p.n {
			return fmt.Errorf("ilp: sparse row references variable %d of %d", i, p.n)
		}
		dense[i] = v
	}
	p.rows = append(p.rows, rowSpec{dense, lp.Sense(sense), rhs})
	return nil
}

const intTol = 1e-6

// maxNodes bounds the branch-and-bound tree.
const maxNodes = 200000

// branch is one extra bound imposed on a variable along a tree path.
type branch struct {
	v     int
	sense lp.Sense
	bound float64
}

type node struct {
	bound    float64 // LP relaxation value: an upper bound for this subtree
	branches []branch
}

type nodeHeap []node

func (h nodeHeap) Len() int            { return len(h) }
func (h nodeHeap) Less(i, j int) bool  { return h[i].bound > h[j].bound } // max-heap
func (h nodeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x interface{}) { *h = append(*h, x.(node)) }
func (h *nodeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// relax solves the LP relaxation under the node's extra branches.
func (p *Problem) relax(branches []branch) lp.Solution {
	rp, err := lp.NewProblem(p.n, p.obj)
	if err != nil {
		return lp.Solution{Status: lp.Infeasible}
	}
	for _, r := range p.rows {
		if rp.AddRow(r.coefs, r.sense, r.rhs) != nil {
			return lp.Solution{Status: lp.Infeasible}
		}
	}
	row := make([]float64, p.n)
	for _, b := range branches {
		row[b.v] = 1
		if rp.AddRow(row, b.sense, b.bound) != nil {
			return lp.Solution{Status: lp.Infeasible}
		}
		row[b.v] = 0
	}
	return rp.Solve()
}

// mostFractional returns the integer variable farthest from integrality,
// or -1 if the point is integral.
func (p *Problem) mostFractional(x []float64) int {
	best, bestDist := -1, intTol
	for i, v := range x {
		if !p.integer[i] {
			continue
		}
		frac := math.Abs(v - math.Round(v))
		if frac > bestDist {
			best, bestDist = i, frac
		}
	}
	return best
}

// Solve runs best-first branch and bound over at most maxNodes nodes.
func (p *Problem) Solve() Solution { return p.solve(maxNodes) }

// solve runs best-first branch and bound over at most limit nodes.
func (p *Problem) solve(limit int) Solution {
	root := p.relax(nil)
	switch root.Status {
	case lp.Infeasible:
		return Solution{Status: Infeasible}
	case lp.Unbounded:
		return Solution{Status: Unbounded}
	}

	var best []float64
	bestObj := math.Inf(-1)
	h := &nodeHeap{{bound: root.Obj}}
	nodes := 0
	record := func(x []float64, obj float64) {
		if obj > bestObj {
			bestObj = obj
			best = append([]float64(nil), x...)
		}
	}
	if p.mostFractional(root.X) < 0 {
		record(root.X, root.Obj)
		return Solution{Status: Optimal, X: best, Obj: bestObj, Nodes: 1}
	}

	for h.Len() > 0 {
		if nodes >= limit {
			st := NodeLimit
			return Solution{Status: st, X: best, Obj: bestObj, Nodes: nodes}
		}
		nd := heap.Pop(h).(node)
		if nd.bound <= bestObj+1e-12 {
			continue // cannot beat the incumbent
		}
		rel := p.relax(nd.branches)
		nodes++
		if rel.Status != lp.Optimal {
			continue
		}
		if rel.Obj <= bestObj+1e-12 {
			continue
		}
		v := p.mostFractional(rel.X)
		if v < 0 {
			record(rel.X, rel.Obj)
			continue
		}
		lo := math.Floor(rel.X[v])
		down := append(append([]branch(nil), nd.branches...), branch{v, lp.LE, lo})
		up := append(append([]branch(nil), nd.branches...), branch{v, lp.GE, lo + 1})
		heap.Push(h, node{bound: rel.Obj, branches: down})
		heap.Push(h, node{bound: rel.Obj, branches: up})
	}
	if best == nil {
		return Solution{Status: Infeasible, Nodes: nodes}
	}
	return Solution{Status: Optimal, X: best, Obj: bestObj, Nodes: nodes}
}
