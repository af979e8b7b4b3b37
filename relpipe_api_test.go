package relpipe_test

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"relpipe"
	"relpipe/internal/mapping"
)

func demoInstance() relpipe.Instance {
	return relpipe.Instance{
		Chain: relpipe.Chain{
			{Work: 40, Out: 4}, {Work: 65, Out: 8}, {Work: 30, Out: 2},
			{Work: 55, Out: 6}, {Work: 25, Out: 0},
		},
		Platform: relpipe.HomogeneousPlatform(8, 1, 1e-8, 1, 1e-5, 3),
	}
}

func TestPublicOptimizeEvaluateRoundTrip(t *testing.T) {
	inst := demoInstance()
	sol, err := relpipe.Optimize(inst, relpipe.Bounds{Period: 120, Latency: 250}, relpipe.Auto)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := relpipe.Evaluate(inst, sol.Mapping)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ev.FailProb-sol.Eval.FailProb) > 1e-15 {
		t.Fatalf("Evaluate %v != Optimize eval %v", ev.FailProb, sol.Eval.FailProb)
	}
	if !ev.MeetsBounds(120, 250) {
		t.Fatal("solution violates its own bounds")
	}
}

func TestPublicInfeasible(t *testing.T) {
	_, err := relpipe.Optimize(demoInstance(), relpipe.Bounds{Period: 1}, relpipe.Auto)
	if !errors.Is(err, relpipe.ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
	// The shared-platform solver reports infeasibility through the same
	// sentinel, both when one application cannot meet its own bounds and
	// when the applications together need more processors than exist.
	app := relpipe.SharedApp{Chain: relpipe.Chain{{Work: 10, Out: 1}, {Work: 10, Out: 0}}, Period: 100}
	tight := app
	tight.Period = 1
	pl := relpipe.HomogeneousPlatform(2, 1, 1e-8, 1, 1e-5, 2)
	for name, apps := range map[string][]relpipe.SharedApp{
		"bounds":     {tight},
		"processors": {app, app, app},
	} {
		if _, err := relpipe.OptimizeShared(apps, pl); !errors.Is(err, relpipe.ErrInfeasible) {
			t.Errorf("OptimizeShared %s: err = %v, want ErrInfeasible", name, err)
		}
	}
}

// TestOptimizeSharedRejectsLongChains checks that an application past
// the enumeration ceiling is an error, not a panic or a 2^{n-1}
// enumeration, and that the ceiling itself is still accepted.
func TestOptimizeSharedRejectsLongChains(t *testing.T) {
	pl := relpipe.HomogeneousPlatform(4, 1, 1e-8, 1, 1e-5, 2)
	short := relpipe.SharedApp{Chain: relpipe.Chain{{Work: 10, Out: 1}, {Work: 10, Out: 0}}}
	for _, n := range []int{23, 31} {
		long := relpipe.SharedApp{Chain: relpipe.RandomChain(1, n, 1, 10, 1, 5)}
		_, err := relpipe.OptimizeShared([]relpipe.SharedApp{short, long}, pl)
		if err == nil || errors.Is(err, relpipe.ErrInfeasible) {
			t.Fatalf("%d tasks: err = %v, want a size error", n, err)
		}
	}
	atCeiling := relpipe.SharedApp{Chain: relpipe.RandomChain(1, 22, 1, 10, 1, 5)}
	if _, err := relpipe.OptimizeShared([]relpipe.SharedApp{atCeiling}, relpipe.HomogeneousPlatform(1, 1, 1e-8, 1, 1e-5, 1)); err != nil {
		t.Fatalf("22 tasks: %v", err)
	}
}

func TestPublicMinPeriod(t *testing.T) {
	inst := demoInstance()
	unconstrained, err := relpipe.MinPeriod(inst, 0)
	if err != nil {
		t.Fatal(err)
	}
	floored, err := relpipe.MinPeriod(inst, 1-1e-13)
	if err != nil {
		t.Fatal(err)
	}
	if floored.Eval.WorstPeriod < unconstrained.Eval.WorstPeriod-1e-9 {
		t.Fatalf("reliability floor shrank the period: %v < %v",
			floored.Eval.WorstPeriod, unconstrained.Eval.WorstPeriod)
	}
	if floored.Eval.FailProb > 1e-13 {
		t.Fatalf("floored solution failure %v above the floor", floored.Eval.FailProb)
	}
}

func TestPublicRandomChain(t *testing.T) {
	c := relpipe.RandomChain(5, 12, 1, 100, 1, 10)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(c) != 12 {
		t.Fatalf("len = %d", len(c))
	}
	c2 := relpipe.RandomChain(5, 12, 1, 100, 1, 10)
	for i := range c {
		if c[i] != c2[i] {
			t.Fatal("RandomChain not deterministic by seed")
		}
	}
}

func TestPublicUnroutedFailProb(t *testing.T) {
	// The unrouted (single-hop, direct replica-to-replica) diagram is
	// more reliable than the routed two-hop accounting on a lossy
	// platform — the paper's future-work trade-off quantified.
	inst := relpipe.Instance{
		Chain:    relpipe.Chain{{Work: 10, Out: 5}, {Work: 12, Out: 0}},
		Platform: relpipe.HomogeneousPlatform(4, 1, 1e-3, 1, 1e-3, 2),
	}
	sol, err := relpipe.Optimize(inst, relpipe.Bounds{}, relpipe.Exact)
	if err != nil {
		t.Fatal(err)
	}
	unrouted, err := relpipe.UnroutedFailProb(inst, sol.Mapping)
	if err != nil {
		t.Fatal(err)
	}
	if unrouted <= 0 || unrouted >= 1 {
		t.Fatalf("unrouted fail prob = %v", unrouted)
	}
	if unrouted > sol.Eval.FailProb {
		t.Fatalf("unrouted %v > routed %v; removing router hops cannot hurt symmetric replication",
			unrouted, sol.Eval.FailProb)
	}
}

// TestUnroutedFailProbReplicaLimit: the unrouted evaluation is
// exponential in the replica count, so an interval above
// mapping.MaxUnroutedReplicas is an error, not a panic (64 replicas used
// to overflow the subset mask) and not a 2^K-float table per stage.
func TestUnroutedFailProbReplicaLimit(t *testing.T) {
	for _, k := range []int{64, mapping.MaxUnroutedReplicas + 1} {
		procs := make([]int, k)
		for i := range procs {
			procs[i] = i
		}
		inst := relpipe.Instance{
			Chain:    relpipe.Chain{{Work: 10, Out: 2}, {Work: 5, Out: 3}, {Work: 7, Out: 0}},
			Platform: relpipe.HomogeneousPlatform(k, 1, 1e-8, 1, 1e-5, k),
		}
		m := relpipe.Mapping{Parts: relpipe.Partition{{First: 0, Last: 2}}, Procs: [][]int{procs}}
		_, err := relpipe.UnroutedFailProb(inst, m)
		if err == nil {
			t.Fatalf("K=%d accepted", k)
		}
		if want := fmt.Sprintf("at most %d", mapping.MaxUnroutedReplicas); !strings.Contains(err.Error(), want) {
			t.Fatalf("K=%d: error %q does not name the limit (%q)", k, err, want)
		}
	}
}

func TestEndToEndSimulationAgreesWithAnalysis(t *testing.T) {
	// Full workflow: generate, optimize, simulate with scaled rates,
	// compare to the analytic failure probability.
	inst := relpipe.Instance{
		Chain:    relpipe.RandomChain(77, 10, 1, 100, 1, 10),
		Platform: relpipe.HomogeneousPlatform(8, 1, 1e-8*1e5, 1, 1e-5*1e5, 3),
	}
	sol, err := relpipe.Optimize(inst, relpipe.Bounds{Period: 200}, relpipe.Auto)
	if err != nil {
		t.Fatal(err)
	}
	const n = 30000
	res, err := relpipe.Simulate(relpipe.SimConfig{
		Chain: inst.Chain, Platform: inst.Platform, Mapping: sol.Mapping,
		Period: 200, DataSets: n, Seed: 7, InjectFailures: true,
		Routing: relpipe.SimTwoHop, WarmUp: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := sol.Eval.FailProb
	sigma := math.Sqrt(p * (1 - p) / n)
	if math.Abs(res.FailureRate()-p) > 5*sigma+1e-9 {
		t.Fatalf("simulated %v vs analytic %v (σ=%v)", res.FailureRate(), p, sigma)
	}
}

func ExampleOptimize() {
	inst := relpipe.Instance{
		Chain:    relpipe.Chain{{Work: 40, Out: 4}, {Work: 65, Out: 8}, {Work: 25, Out: 0}},
		Platform: relpipe.HomogeneousPlatform(6, 1, 1e-8, 1, 1e-5, 3),
	}
	sol, err := relpipe.Optimize(inst, relpipe.Bounds{Period: 120, Latency: 250}, relpipe.Auto)
	if err != nil {
		fmt.Println("infeasible:", err)
		return
	}
	fmt.Printf("intervals=%d period=%.0f latency=%.0f\n",
		len(sol.Mapping.Parts), sol.Eval.WorstPeriod, sol.Eval.WorstLatency)
	// Output: intervals=2 period=90 latency=134
}

func ExampleMinPeriod() {
	inst := relpipe.Instance{
		Chain:    relpipe.Chain{{Work: 30, Out: 2}, {Work: 30, Out: 2}, {Work: 30, Out: 0}},
		Platform: relpipe.HomogeneousPlatform(6, 1, 1e-8, 1, 1e-5, 3),
	}
	sol, err := relpipe.MinPeriod(inst, 0)
	if err != nil {
		fmt.Println("infeasible:", err)
		return
	}
	fmt.Printf("min period=%.0f with %d intervals\n", sol.Eval.WorstPeriod, len(sol.Mapping.Parts))
	// Output: min period=30 with 3 intervals
}
