package ilp

import (
	"math"
	"testing"
	"testing/quick"

	"relpipe/internal/lp"
	"relpipe/internal/rng"
)

func TestKnapsackSmall(t *testing.T) {
	// maximize 10a + 13b + 7c s.t. 3a + 4b + 2c <= 6, binary.
	// Best: a + c = 17 (weight 5); b + c = 20 (weight 6). Optimum 20.
	p, err := NewProblem(3, []float64{10, 13, 7}, nil)
	if err != nil {
		t.Fatal(err)
	}
	mustRow(t, p, []float64{3, 4, 2}, lp.LE, 6)
	for i := 0; i < 3; i++ {
		row := make([]float64, 3)
		row[i] = 1
		mustRow(t, p, row, lp.LE, 1)
	}
	s := p.Solve()
	if s.Status != Optimal {
		t.Fatalf("status = %v", s.Status)
	}
	if math.Abs(s.Obj-20) > 1e-6 {
		t.Fatalf("obj = %v, want 20", s.Obj)
	}
	if math.Abs(s.X[1]-1) > 1e-6 || math.Abs(s.X[2]-1) > 1e-6 || math.Abs(s.X[0]) > 1e-6 {
		t.Fatalf("x = %v, want (0,1,1)", s.X)
	}
}

func mustRow(t *testing.T, p *Problem, coefs []float64, s lp.Sense, rhs float64) {
	t.Helper()
	if err := p.AddRow(coefs, s, rhs); err != nil {
		t.Fatal(err)
	}
}

// bruteKnapsack solves a binary knapsack exhaustively.
func bruteKnapsack(values, weights []float64, cap float64) float64 {
	n := len(values)
	best := 0.0
	for mask := 0; mask < 1<<n; mask++ {
		v, w := 0.0, 0.0
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				v += values[i]
				w += weights[i]
			}
		}
		if w <= cap && v > best {
			best = v
		}
	}
	return best
}

func TestKnapsackMatchesBruteForce(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 2 + r.IntN(9)
		values := make([]float64, n)
		weights := make([]float64, n)
		for i := range values {
			values[i] = r.Uniform(1, 20)
			weights[i] = r.Uniform(1, 10)
		}
		cap := r.Uniform(5, 30)
		p, err := NewProblem(n, values, nil)
		if err != nil {
			return false
		}
		if p.AddRow(weights, lp.LE, cap) != nil {
			return false
		}
		for i := 0; i < n; i++ {
			row := make([]float64, n)
			row[i] = 1
			if p.AddRow(row, lp.LE, 1) != nil {
				return false
			}
		}
		s := p.Solve()
		if s.Status != Optimal {
			return false
		}
		want := bruteKnapsack(values, weights, cap)
		return math.Abs(s.Obj-want) <= 1e-6*(1+want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestInfeasibleInteger(t *testing.T) {
	// 2x = 1 with x integer: LP-feasible (x=0.5) but IP-infeasible with
	// x also bounded below 1.
	p, _ := NewProblem(1, []float64{1}, nil)
	mustRow(t, p, []float64{2}, lp.EQ, 1)
	s := p.Solve()
	if s.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", s.Status)
	}
}

func TestMixedInteger(t *testing.T) {
	// maximize x + y, x integer, y continuous; x + y <= 2.5, x <= 1.7.
	// Optimum: x = 1, y = 1.5.
	p, _ := NewProblem(2, []float64{1, 1}, []bool{true, false})
	mustRow(t, p, []float64{1, 1}, lp.LE, 2.5)
	mustRow(t, p, []float64{1, 0}, lp.LE, 1.7)
	s := p.Solve()
	if s.Status != Optimal {
		t.Fatalf("status = %v", s.Status)
	}
	if math.Abs(s.X[0]-1) > 1e-6 || math.Abs(s.Obj-2.5) > 1e-6 {
		t.Fatalf("x = %v obj = %v, want x0=1 obj=2.5", s.X, s.Obj)
	}
}

func TestUnboundedRelaxation(t *testing.T) {
	p, _ := NewProblem(1, []float64{1}, nil)
	s := p.Solve()
	if s.Status != Unbounded {
		t.Fatalf("status = %v, want unbounded", s.Status)
	}
}

func TestNodeLimit(t *testing.T) {
	// An equality-partition instance that needs branching; with a node
	// budget of 1 the solver must report NodeLimit.
	r := rng.New(3)
	n := 12
	values := make([]float64, n)
	weights := make([]float64, n)
	for i := range values {
		values[i] = r.Uniform(1, 20)
		weights[i] = r.Uniform(1, 10)
	}
	p, _ := NewProblem(n, values, nil)
	mustRow(t, p, weights, lp.LE, 25)
	for i := 0; i < n; i++ {
		row := make([]float64, n)
		row[i] = 1
		mustRow(t, p, row, lp.LE, 1)
	}
	s := p.solve(1)
	if s.Status != NodeLimit && s.Status != Optimal {
		t.Fatalf("status = %v, want node-limit (or optimal if solved at the root)", s.Status)
	}
}

func TestInvalidConstruction(t *testing.T) {
	if _, err := NewProblem(0, nil, nil); err == nil {
		t.Fatal("accepted n=0")
	}
	if _, err := NewProblem(2, []float64{1}, nil); err == nil {
		t.Fatal("accepted objective mismatch")
	}
	if _, err := NewProblem(2, []float64{1, 1}, []bool{true}); err == nil {
		t.Fatal("accepted integrality mismatch")
	}
	p, _ := NewProblem(2, []float64{1, 1}, nil)
	if err := p.AddRow([]float64{1}, lp.LE, 1); err == nil {
		t.Fatal("accepted row mismatch")
	}
	if err := p.AddSparseRow(map[int]float64{5: 1}, lp.LE, 1); err == nil {
		t.Fatal("accepted bad sparse index")
	}
}

func TestStatusString(t *testing.T) {
	for _, s := range []Status{Optimal, Infeasible, Unbounded, NodeLimit, Status(9)} {
		if s.String() == "" {
			t.Fatal("empty Status.String")
		}
	}
}
