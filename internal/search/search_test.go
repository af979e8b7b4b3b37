package search

import (
	"context"
	"fmt"
	"math"
	"testing"

	"relpipe/internal/chain"
	"relpipe/internal/cost"
	"relpipe/internal/dp"
	"relpipe/internal/exact"
	"relpipe/internal/exact/exactref"
	"relpipe/internal/frontier"
	"relpipe/internal/mapping"
	"relpipe/internal/platform"
	"relpipe/internal/rng"
)

// gapFactor is the tested optimality gap on exhaustively-solvable
// instances: the search log-reliability must be within this factor of
// the exact optimum (log-reliabilities are negative, so ratio <= 1.05
// means at most 5% worse in log space). Empirically the search hits
// the exact optimum on every pinned instance; the slack absorbs
// libm-level drift, not algorithmic regressions.
const gapFactor = 1.05

func checkGap(t *testing.T, name string, got, want float64) {
	t.Helper()
	if want == 0 {
		if got != 0 {
			t.Fatalf("%s: search logRel %g, exact 0", name, got)
		}
		return
	}
	if ratio := got / want; ratio > gapFactor || ratio < 0 {
		t.Fatalf("%s: search logRel %g vs exact %g (ratio %g beyond %g)", name, got, want, ratio, gapFactor)
	}
}

func TestOptimizeWithinGapOfExactHomogeneous(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		r := rng.New(seed)
		n := 6 + int(seed)%7 // 6..12
		c := chain.PaperRandom(r, n)
		pl := platform.PaperHomogeneous(8)
		per, lat := r.Uniform(40, 200), r.Uniform(150, 800)
		_, evE, errE := exact.OptimalPar(context.Background(), c, pl, per, lat, 1)
		res, ok, err := Optimize(c, pl, Options{Period: per, Latency: lat, Seed: 1})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if (errE == nil) != ok {
			t.Fatalf("seed %d: exact err=%v but search ok=%v", seed, errE, ok)
		}
		if !ok {
			continue
		}
		if err := res.M.Validate(c, pl); err != nil {
			t.Fatalf("seed %d: invalid mapping: %v", seed, err)
		}
		if !res.Ev.MeetsBounds(per, lat) {
			t.Fatalf("seed %d: result violates bounds: %v", seed, res.Ev)
		}
		checkGap(t, fmt.Sprintf("hom seed %d", seed), res.Ev.LogRel, evE.LogRel)
	}
}

func TestOptimizeWithinGapOfExactHeterogeneous(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		r := rng.New(seed)
		n := 5 + int(seed)%6 // 5..10
		c := chain.PaperRandom(r, n)
		pl := platform.PaperHeterogeneous(r, 6)
		per, lat := r.Uniform(5, 60), r.Uniform(30, 300)
		_, evE, errE := exactref.OptimalHetPar(context.Background(), c, pl, per, lat, 1)
		res, ok, err := Optimize(c, pl, Options{Period: per, Latency: lat, Seed: 1})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if errE == nil && !ok {
			t.Fatalf("seed %d: exact feasible but search found nothing", seed)
		}
		if !ok {
			continue
		}
		if ok && errE != nil {
			t.Fatalf("seed %d: search claims feasible where exact proved infeasible", seed)
		}
		if !res.Ev.MeetsBounds(per, lat) {
			t.Fatalf("seed %d: result violates bounds: %v", seed, res.Ev)
		}
		checkGap(t, fmt.Sprintf("het seed %d", seed), res.Ev.LogRel, evE.LogRel)
	}
}

// TestDeterministicAcrossParallelism mirrors PR 2's differential
// tests: for a fixed seed the portfolio reduce must return the exact
// same mapping and evaluation at every parallelism degree.
func TestDeterministicAcrossParallelism(t *testing.T) {
	r := rng.New(42)
	c := chain.PaperRandom(r, 100)
	pl := platform.PaperHeterogeneous(r, 30)
	opts := Options{Period: 25, Latency: 600, Seed: 9, Restarts: 6, Budget: 1500}
	want, okW, err := Optimize(c, pl, Options{Period: opts.Period, Latency: opts.Latency,
		Seed: opts.Seed, Restarts: opts.Restarts, Budget: opts.Budget, Parallelism: 1})
	if err != nil || !okW {
		t.Fatalf("P=1: ok=%v err=%v", okW, err)
	}
	for _, p := range []int{2, 8} {
		o := opts
		o.Parallelism = p
		got, ok, err := Optimize(c, pl, o)
		if err != nil || !ok {
			t.Fatalf("P=%d: ok=%v err=%v", p, ok, err)
		}
		if got.Ev.LogRel != want.Ev.LogRel || fmt.Sprint(got.M) != fmt.Sprint(want.M) {
			t.Fatalf("P=%d diverged:\n  %v (logRel %.17g)\n  %v (logRel %.17g)",
				p, got.M, got.Ev.LogRel, want.M, want.Ev.LogRel)
		}
		if got.Stats.Iterations != want.Stats.Iterations {
			t.Fatalf("P=%d iterations %d != %d", p, got.Stats.Iterations, want.Stats.Iterations)
		}
	}
}

func TestMinimizePeriodWithinGapOfDP(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		r := rng.New(seed)
		n := 6 + int(seed)%6
		c := chain.PaperRandom(r, n)
		pl := platform.PaperHomogeneous(8)
		floor := math.Log(0.999999)
		_, evD, errD := dp.MinPeriodForReliabilityPar(context.Background(), c, pl, floor, 1)
		res, ok, err := MinimizePeriod(c, pl, Options{MinLogRel: floor, Seed: 1})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if (errD == nil) != ok {
			t.Fatalf("seed %d: dp err=%v search ok=%v", seed, errD, ok)
		}
		if !ok {
			continue
		}
		if res.Ev.LogRel < floor {
			t.Fatalf("seed %d: floor violated: %g < %g", seed, res.Ev.LogRel, floor)
		}
		if res.Ev.WorstPeriod > evD.WorstPeriod*1.05 {
			t.Fatalf("seed %d: period %g beyond 5%% of optimal %g", seed, res.Ev.WorstPeriod, evD.WorstPeriod)
		}
	}
}

func TestMinimizeCostWithinGapOfExact(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		r := rng.New(seed)
		n := 5 + int(seed)%5
		c := chain.PaperRandom(r, n)
		pl := platform.PaperHomogeneous(8)
		costs := make([]float64, pl.P())
		for u := range costs {
			costs[u] = r.Uniform(1, 10)
		}
		floor := math.Log(0.99999)
		solE, errE := cost.Minimize(c, pl, costs, floor, 0, 0)
		res, ok, err := MinimizeCost(c, pl, Options{MinLogRel: floor, Costs: costs, Seed: 1})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if (errE == nil) != ok {
			t.Fatalf("seed %d: exact err=%v search ok=%v", seed, errE, ok)
		}
		if !ok {
			continue
		}
		if res.Ev.LogRel < floor {
			t.Fatalf("seed %d: floor violated", seed)
		}
		if res.TotalCost < solE.TotalCost-1e-9 {
			t.Fatalf("seed %d: search cost %g below proven optimum %g", seed, res.TotalCost, solE.TotalCost)
		}
		if res.TotalCost > solE.TotalCost*1.05+1e-9 {
			t.Fatalf("seed %d: search cost %g beyond 5%% of optimal %g", seed, res.TotalCost, solE.TotalCost)
		}
	}
}

func TestInfeasibleBoundsReturnNotOK(t *testing.T) {
	c := chain.Chain{{Work: 100, Out: 0}}
	pl := platform.PaperHomogeneous(4)
	res, ok, err := Optimize(c, pl, Options{Period: 1e-9, Seed: 1, Restarts: 2, Budget: 200})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatalf("claimed feasibility under an impossible period bound: %v", res.Ev)
	}
}

func TestAllowedConstraintRespected(t *testing.T) {
	r := rng.New(3)
	c := chain.PaperRandom(r, 20)
	pl := platform.PaperHeterogeneous(r, 10)
	// Odd processors only.
	alive := make([]bool, pl.P())
	for u := range alive {
		alive[u] = u%2 == 1
	}
	res, ok, err := Optimize(c, pl, Options{Seed: 1, alive: alive, Restarts: 4, Budget: 800})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("no solution with half the processors alive")
	}
	for j, ps := range res.M.Procs {
		for _, u := range ps {
			if u%2 != 1 {
				t.Fatalf("interval %d uses dead processor %d", j, u)
			}
		}
	}
}

func TestAllowedForbiddingEverythingReturnsNotOK(t *testing.T) {
	c := chain.Chain{{Work: 5, Out: 0}}
	pl := platform.PaperHomogeneous(3)
	_, ok, err := Optimize(c, pl, Options{Seed: 1, alive: make([]bool, pl.P())})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("found a mapping although no processor is alive")
	}
}

func TestCancellationAborts(t *testing.T) {
	r := rng.New(1)
	c := chain.PaperRandom(r, 200)
	pl := platform.PaperHeterogeneous(r, 40)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := Optimize(c, pl, Options{Seed: 1, Context: ctx})
	if err == nil {
		t.Fatal("cancelled context did not abort the search")
	}
}

func TestMinimizeCostValidatesCosts(t *testing.T) {
	c := chain.Chain{{Work: 5, Out: 0}}
	pl := platform.PaperHomogeneous(3)
	if _, _, err := MinimizeCost(c, pl, Options{Costs: []float64{1, 2}}); err == nil {
		t.Fatal("accepted wrong-length costs")
	}
	if _, _, err := MinimizeCost(c, pl, Options{Costs: []float64{1, -2, 3}}); err == nil {
		t.Fatal("accepted negative cost")
	}
}

func TestInvalidInstanceReturnsError(t *testing.T) {
	if _, _, err := Optimize(chain.Chain{}, platform.PaperHomogeneous(2), Options{}); err == nil {
		t.Fatal("accepted empty chain")
	}
	pl := platform.PaperHomogeneous(2)
	pl.Bandwidth = 0
	if _, _, err := Optimize(chain.Chain{{Work: 1, Out: 0}}, pl, Options{}); err == nil {
		t.Fatal("accepted invalid platform")
	}
}

// TestSearchNeverBelowSeeds is structural: restart 0 starts from the
// best heuristic candidate, so the reduced best can never score below
// the raw seed pool.
func TestSearchNeverBelowSeeds(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		r := rng.New(seed)
		c := chain.PaperRandom(r, 40)
		pl := platform.PaperHeterogeneous(r, 12)
		res, ok, err := Optimize(c, pl, Options{Period: 30, Latency: 500, Seed: seed, Restarts: 3, Budget: 500})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !ok {
			continue
		}
		if res.Stats.BestScore < res.Stats.SeedScore {
			t.Fatalf("seed %d: best %g below seed %g", seed, res.Stats.BestScore, res.Stats.SeedScore)
		}
	}
}

func TestFrontierApproximation(t *testing.T) {
	r := rng.New(5)
	c := chain.PaperRandom(r, 40)
	pl := platform.PaperHomogeneous(10)
	pts, err := Frontier(c, pl, Options{Seed: 1, Restarts: 3, Budget: 600})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) == 0 {
		t.Fatal("empty frontier")
	}
	// Mutually non-dominated.
	if n := len(frontier.Front(pts, frontier.Point.Criteria)); n != len(pts) {
		t.Fatalf("%d of %d frontier points are dominated", len(pts)-n, len(pts))
	}
	for i, a := range pts {
		// Sorted by period.
		if i > 0 && pts[i-1].Period > a.Period {
			t.Fatalf("frontier unsorted at %d", i)
		}
		// On a homogeneous platform the (Ends, Counts) reconstruction
		// reproduces the recorded metrics exactly.
		ev, err := mapping.Evaluate(c, pl, a.Mapping())
		if err != nil {
			t.Fatal(err)
		}
		if ev.WorstPeriod != a.Period || ev.WorstLatency != a.Latency || ev.LogRel != a.LogRel {
			t.Fatalf("point %d metrics drift: %v vs (%g,%g,%g)", i, ev, a.Period, a.Latency, a.LogRel)
		}
	}
}

// TestInfeasibleScoreGradient pins the feasibility-repair gradient:
// smaller violations must score strictly higher than larger ones (a
// penalty base that absorbs the violation in float64 rounding — e.g.
// -1e18, whose ULP is 128 — would flatten the gradient and turn the
// repair phase into an unguided walk), and any feasible state must
// outrank every infeasible one.
func TestInfeasibleScoreGradient(t *testing.T) {
	p := problem{opts: Options{Period: 10, Latency: 100}, obj: maxReliability}
	small := mapping.Score{WorstPeriod: 10.1, WorstLatency: 50, LogRel: -1}  // violation 0.01
	large := mapping.Score{WorstPeriod: 20, WorstLatency: 50, LogRel: -1}    // violation 1
	feasible := mapping.Score{WorstPeriod: 5, WorstLatency: 50, LogRel: -50} // poor but feasible
	if !(p.score(small, 0) > p.score(large, 0)) {
		t.Fatalf("violation gradient flattened: %g !> %g", p.score(small, 0), p.score(large, 0))
	}
	if !(p.score(feasible, 0) > p.score(small, 0)) {
		t.Fatalf("feasible state does not outrank infeasible: %g !> %g", p.score(feasible, 0), p.score(small, 0))
	}
	// Temperature scale of an infeasible start reflects the violation.
	if m := scoreMagnitude(p.score(large, 0)); math.Abs(m-1) > 1e-9 {
		t.Fatalf("scoreMagnitude of violation-1 state = %g, want 1", m)
	}
}

// TestSeedZeroIsDefaultSeedOne: the zero Options value and the CLIs'
// seed-1 default must solve identically, across every layer.
func TestSeedZeroIsDefaultSeedOne(t *testing.T) {
	r := rng.New(8)
	c := chain.PaperRandom(r, 30)
	pl := platform.PaperHeterogeneous(r, 10)
	opts := Options{Period: 30, Latency: 800, Restarts: 3, Budget: 500}
	a, okA, err := Optimize(c, pl, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Seed = 1
	b, okB, err := Optimize(c, pl, opts)
	if err != nil {
		t.Fatal(err)
	}
	if okA != okB || (okA && (a.Ev.LogRel != b.Ev.LogRel || fmt.Sprint(a.M) != fmt.Sprint(b.M))) {
		t.Fatal("seed 0 and seed 1 solve differently")
	}
}

func TestSampledMCoversRangeSparsely(t *testing.T) {
	ms := sampledM(500)
	if ms[0] != 1 || ms[len(ms)-1] != 500 {
		t.Fatalf("sampledM(500) endpoints: %v", ms)
	}
	if len(ms) > 45 {
		t.Fatalf("sampledM(500) too dense: %d values", len(ms))
	}
	// Every count through 24 is present (the documented dense prefix),
	// then a strictly increasing ladder.
	for i := 0; i < 24; i++ {
		if ms[i] != i+1 {
			t.Fatalf("sampledM(500) dense prefix broken at %d: %v", i, ms[:25])
		}
	}
	for i := 1; i < len(ms); i++ {
		if ms[i] <= ms[i-1] {
			t.Fatalf("sampledM not increasing: %v", ms)
		}
	}
	small := sampledM(10)
	if len(small) != 10 {
		t.Fatalf("sampledM(10) = %v, want 1..10", small)
	}
}
