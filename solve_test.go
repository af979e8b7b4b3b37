package relpipe

import (
	"encoding/json"
	"errors"
	"math"
	"testing"

	"relpipe/internal/chain"
	"relpipe/internal/platform"
	"relpipe/internal/rng"
)

func homInstance(n, p int) Instance {
	return Instance{
		Chain:    chain.PaperRandom(rng.New(7), n),
		Platform: platform.Homogeneous(p, 1, 1e-2, 1, 1e-3, 3),
	}
}

func hetInstance(n, p int) Instance {
	r := rng.New(11)
	return Instance{
		Chain:    chain.PaperRandom(r, n),
		Platform: platform.PaperHeterogeneous(r, p),
	}
}

func TestOptimizeAllMethodsAgreeOnHomogeneous(t *testing.T) {
	in := homInstance(6, 5)
	b := Bounds{Period: 200, Latency: 600}
	solE, err := OptimizeWith(in, b, Exact, Options{})
	if err != nil {
		t.Fatal(err)
	}
	solI, err := OptimizeWith(in, b, ILP, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(solE.Eval.LogRel-solI.Eval.LogRel) > 1e-6*(1+math.Abs(solE.Eval.LogRel)) {
		t.Fatalf("exact %v vs ilp %v", solE.Eval.LogRel, solI.Eval.LogRel)
	}
	// Heuristics are feasible and no better than the optimum.
	for _, m := range []Method{HeurP, HeurL, BestHeuristic} {
		sol, err := OptimizeWith(in, b, m, Options{})
		if err != nil {
			if errors.Is(err, ErrInfeasible) {
				continue
			}
			t.Fatal(err)
		}
		if sol.Eval.LogRel > solE.Eval.LogRel+1e-9 {
			t.Fatalf("%v beat the exact optimum", m)
		}
		if !sol.Eval.MeetsBounds(b.Period, b.Latency) {
			t.Fatalf("%v violates bounds", m)
		}
	}
}

func TestOptimizeDPNoLatency(t *testing.T) {
	in := homInstance(6, 5)
	sol, err := OptimizeWith(in, Bounds{Period: 200}, DP, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Eval.WorstPeriod > 200 {
		t.Fatalf("DP violated period bound: %v", sol.Eval.WorstPeriod)
	}
	if _, err := OptimizeWith(in, Bounds{Latency: 500}, DP, Options{}); err == nil {
		t.Fatal("DP accepted a latency bound")
	}
}

func TestOptimizeAutoSelection(t *testing.T) {
	// Homogeneous small: exact.
	sol, err := OptimizeWith(homInstance(6, 5), Bounds{}, Auto, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Method != "exact" {
		t.Fatalf("auto picked %q, want exact", sol.Method)
	}
	// Heterogeneous: the search engine.
	sol, err = OptimizeWith(hetInstance(6, 5), Bounds{}, Auto, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Method != "heuristic" {
		t.Fatalf("auto picked %q, want heuristic", sol.Method)
	}
}

func TestOptimizeHeuristicMethod(t *testing.T) {
	in := homInstance(6, 5)
	b := Bounds{Period: 200, Latency: 600}
	solE, err := OptimizeWith(in, b, Exact, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sol, err := OptimizeWith(in, b, Heuristic, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Method != "heuristic" {
		t.Fatalf("method = %q", sol.Method)
	}
	if !sol.Eval.MeetsBounds(b.Period, b.Latency) {
		t.Fatal("heuristic violates bounds")
	}
	if sol.Eval.LogRel > solE.Eval.LogRel+1e-9 {
		t.Fatal("heuristic beat the exact optimum")
	}
}

func TestOptimizeInfeasible(t *testing.T) {
	in := homInstance(6, 5)
	for _, m := range []Method{Exact, DP, ILP, HeurP, HeurL, BestHeuristic, Heuristic} {
		b := Bounds{Period: 1e-6}
		if m == DP {
			b = Bounds{Period: 1e-6}
		}
		_, err := OptimizeWith(in, b, m, Options{})
		if !errors.Is(err, ErrInfeasible) {
			t.Fatalf("%v: err = %v, want ErrInfeasible", m, err)
		}
	}
}

func TestOptimizeRejectsInvalidInstance(t *testing.T) {
	in := homInstance(4, 4)
	in.Chain = chain.Chain{}
	if _, err := OptimizeWith(in, Bounds{}, Auto, Options{}); err == nil {
		t.Fatal("accepted empty chain")
	}
}

func TestOptimizeExactTaskLimit(t *testing.T) {
	in := Instance{
		Chain:    chain.PaperRandom(rng.New(1), 23),
		Platform: platform.PaperHomogeneous(4),
	}
	if _, err := OptimizeWith(in, Bounds{}, Exact, Options{}); err == nil {
		t.Fatal("Exact accepted 23 tasks")
	}
	// Auto must fall back (DP without latency) rather than fail.
	if _, err := OptimizeWith(in, Bounds{Period: 2000}, Auto, Options{}); err != nil {
		t.Fatalf("auto on 23 tasks: %v", err)
	}
}

func TestEvaluateRoundTrip(t *testing.T) {
	in := homInstance(6, 5)
	sol, err := OptimizeWith(in, Bounds{}, Exact, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ev, err := Evaluate(in, sol.Mapping)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ev.LogRel-sol.Eval.LogRel) > 1e-12*(1+math.Abs(ev.LogRel)) {
		t.Fatal("Evaluate disagrees with Optimize's eval")
	}
}

func TestMinPeriod(t *testing.T) {
	in := homInstance(6, 5)
	sol, err := MinPeriodMethod(in, 0, Auto, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Eval.WorstPeriod <= 0 {
		t.Fatalf("MinPeriod period = %v", sol.Eval.WorstPeriod)
	}
	if sol.Method != "min-period" {
		t.Fatalf("method = %q", sol.Method)
	}
	// Heterogeneous: auto falls back to the search engine.
	het, err := MinPeriodMethod(hetInstance(5, 4), 0, Auto, Options{Parallelism: 1})
	if err != nil {
		t.Fatalf("MinPeriod on heterogeneous platform: %v", err)
	}
	if het.Method != "min-period-heuristic" {
		t.Fatalf("het method = %q", het.Method)
	}
	if het.Eval.WorstPeriod <= 0 {
		t.Fatalf("het period = %v", het.Eval.WorstPeriod)
	}
	// Explicit DP on a heterogeneous platform still refuses.
	if _, err := MinPeriodMethod(hetInstance(5, 4), 0, DP, Options{}); err == nil {
		t.Fatal("explicit DP accepted a heterogeneous platform")
	}
	// Unsupported method names fail loudly.
	if _, err := MinPeriodMethod(homInstance(5, 4), 0, ILP, Options{}); err == nil {
		t.Fatal("min-period accepted ILP")
	}
}

func TestMinimizeCostMethods(t *testing.T) {
	in := Instance{
		Chain:    chain.PaperRandom(rng.New(7), 6),
		Platform: platform.PaperHomogeneous(6),
	}
	costs := []float64{5, 1, 4, 2, 3, 6}
	floor := 0.999
	exactSol, err := MinimizeCostWith(in, costs, floor, Bounds{}, Exact, Options{})
	if err != nil {
		t.Fatal(err)
	}
	heurSol, err := MinimizeCostWith(in, costs, floor, Bounds{}, Heuristic, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if heurSol.TotalCost < exactSol.TotalCost-1e-9 {
		t.Fatalf("heuristic cost %g below the proven optimum %g", heurSol.TotalCost, exactSol.TotalCost)
	}
	if heurSol.Eval.LogRel < math.Log(floor) {
		t.Fatal("heuristic violates the reliability floor")
	}
	// Auto on a small homogeneous instance picks the exact solver.
	autoSol, err := MinimizeCostWith(in, costs, floor, Bounds{}, Auto, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if autoSol.TotalCost != exactSol.TotalCost {
		t.Fatalf("auto cost %g != exact %g", autoSol.TotalCost, exactSol.TotalCost)
	}
	// Heterogeneous platforms route to the search engine.
	hin := hetInstance(6, 6)
	hcosts := []float64{1, 2, 3, 4, 5, 6}
	if _, err := MinimizeCostWith(hin, hcosts, floor, Bounds{}, Auto, Options{}); err != nil {
		t.Fatalf("auto min-cost on heterogeneous platform: %v", err)
	}
	if _, err := MinimizeCostWith(in, costs, floor, Bounds{}, DP, Options{}); err == nil {
		t.Fatal("min-cost accepted DP")
	}
	// Explicit Exact beyond the enumeration ceiling is refused up front
	// (2^{n-1} partitions), mirroring Optimize's guard.
	big := Instance{
		Chain:    chain.PaperRandom(rng.New(2), maxExactTasks+1),
		Platform: platform.PaperHomogeneous(6),
	}
	bigCosts := make([]float64, 6)
	if _, err := MinimizeCostWith(big, bigCosts, floor, Bounds{}, Exact, Options{}); err == nil {
		t.Fatalf("exact min-cost accepted %d tasks", maxExactTasks+1)
	}
}

// TestHeuristicReliabilityFloorOfOne pins the floor = 1.0 edge
// (minLogRel = 0): the search must treat it as a hard constraint — not
// silently unconstrained — matching the DP/exact paths. On a platform
// with positive failure rates it is infeasible; on a zero-failure
// platform it is met exactly.
func TestHeuristicReliabilityFloorOfOne(t *testing.T) {
	in := hetInstance(5, 4)
	if _, err := MinPeriodMethod(in, 1, Heuristic, Options{Budget: 300, Restarts: 2}); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("floor=1 on a failing platform: err = %v, want ErrInfeasible", err)
	}
	perfect := Instance{
		Chain:    chain.PaperRandom(rng.New(3), 6),
		Platform: platform.Homogeneous(4, 1, 0, 1, 0, 2),
	}
	sol, err := MinPeriodMethod(perfect, 1, Heuristic, Options{Budget: 300, Restarts: 2})
	if err != nil {
		t.Fatalf("floor=1 on a zero-failure platform: %v", err)
	}
	if sol.Eval.LogRel != 0 {
		t.Fatalf("LogRel = %g, want exactly 0", sol.Eval.LogRel)
	}
}

func TestMethodParseRoundTrip(t *testing.T) {
	for _, m := range []Method{Auto, HeurP, HeurL, BestHeuristic, DP, Exact, ILP, Heuristic} {
		back, err := ParseMethod(m.String())
		if err != nil {
			t.Fatal(err)
		}
		if back != m {
			t.Fatalf("round trip %v -> %v", m, back)
		}
	}
	if _, err := ParseMethod("nope"); err == nil {
		t.Fatal("ParseMethod accepted junk")
	}
	if Method(99).String() == "" {
		t.Fatal("unknown method String empty")
	}
}

func TestInstanceJSONRoundTrip(t *testing.T) {
	in := hetInstance(5, 4)
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var back Instance
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Chain) != len(in.Chain) || back.Platform.P() != in.Platform.P() {
		t.Fatal("instance JSON round trip lost data")
	}
}

func TestSolutionJSONRoundTrip(t *testing.T) {
	in := homInstance(5, 4)
	sol, err := OptimizeWith(in, Bounds{}, Exact, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(sol)
	if err != nil {
		t.Fatal(err)
	}
	var back Solution
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Method != sol.Method || len(back.Mapping.Parts) != len(sol.Mapping.Parts) {
		t.Fatal("solution JSON round trip lost data")
	}
}
