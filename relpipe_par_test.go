package relpipe_test

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"relpipe"
)

// TestOptimizeWithParallelismInvariance asserts the public facade's
// contract: Options.Parallelism never changes a solution, across
// methods, on randomized instances.
func TestOptimizeWithParallelismInvariance(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		inst := relpipe.Instance{
			Chain:    relpipe.RandomChain(seed, 12, 1, 100, 1, 10),
			Platform: relpipe.HomogeneousPlatform(8, 1, 1e-8, 1, 1e-5, 3),
		}
		b := relpipe.Bounds{Period: 250, Latency: 900}
		for _, method := range []relpipe.Method{relpipe.Exact, relpipe.DP} {
			bounds := b
			if method == relpipe.DP {
				bounds.Latency = 0
			}
			want, wantErr := relpipe.OptimizeWith(inst, bounds, method, relpipe.Options{Parallelism: 1})
			for _, p := range []int{2, 8} {
				got, gotErr := relpipe.OptimizeWith(inst, bounds, method, relpipe.Options{Parallelism: p})
				if (gotErr == nil) != (wantErr == nil) {
					t.Fatalf("seed %d, %v, P=%d: err = %v, want %v", seed, method, p, gotErr, wantErr)
				}
				if gotErr == nil && !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d, %v, P=%d: solution differs from sequential", seed, method, p)
				}
			}
		}
	}
}

// TestMinimizeCostExactParallelismInvariance extends the contract to
// the exact min-cost solver, whose partition sweep shards across
// Options.Parallelism: floors with and without bounds, and a floor no
// mapping reaches.
func TestMinimizeCostExactParallelismInvariance(t *testing.T) {
	inst := relpipe.Instance{
		Chain:    relpipe.RandomChain(5, 13, 1, 100, 1, 10),
		Platform: relpipe.HomogeneousPlatform(9, 1, 1e-4, 1, 1e-5, 3),
	}
	costs := make([]float64, inst.Platform.P())
	for u := range costs {
		costs[u] = float64(1 + u%4)
	}
	for _, tc := range []struct {
		floor float64
		b     relpipe.Bounds
	}{
		{0.99, relpipe.Bounds{Period: 300, Latency: 900}},
		{0.995, relpipe.Bounds{}},
		{1 - 1e-12, relpipe.Bounds{}},
	} {
		want, wantErr := relpipe.MinimizeCostWith(inst, costs, tc.floor, tc.b, relpipe.Exact, relpipe.Options{Parallelism: 1})
		for _, p := range []int{2, 8} {
			got, gotErr := relpipe.MinimizeCostWith(inst, costs, tc.floor, tc.b, relpipe.Exact, relpipe.Options{Parallelism: p})
			if (gotErr == nil) != (wantErr == nil) || !reflect.DeepEqual(got, want) {
				t.Fatalf("floor %v, P=%d: got %v, %v; want %v, %v", tc.floor, p, got, gotErr, want, wantErr)
			}
		}
	}
}

// TestMinimizeCostExactCancels checks that a cancelled context stops
// the exact min-cost enumeration at 20 tasks (2^19 partitions) with
// context.Canceled instead of running it to the end.
func TestMinimizeCostExactCancels(t *testing.T) {
	inst := relpipe.Instance{
		Chain:    relpipe.RandomChain(7, 20, 1, 10, 1, 5),
		Platform: relpipe.HomogeneousPlatform(10, 1, 1e-4, 1, 1e-5, 3),
	}
	costs := make([]float64, inst.Platform.P())
	for u := range costs {
		costs[u] = 1
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, p := range []int{1, 4} {
		start := time.Now()
		_, err := relpipe.MinimizeCostWith(inst, costs, 1-1e-6, relpipe.Bounds{}, relpipe.Exact,
			relpipe.Options{Context: ctx, Parallelism: p})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("P=%d: err = %v, want context.Canceled", p, err)
		}
		if lag := time.Since(start); lag > time.Second {
			t.Fatalf("P=%d: cancelled solve took %v, want prompt", p, lag)
		}
	}
}

// TestHeuristicParallelismInvariance extends the facade contract to
// the search engine: for a fixed search seed the portfolio's
// deterministic reduce returns the same solution at every degree.
func TestHeuristicParallelismInvariance(t *testing.T) {
	inst := relpipe.Instance{
		Chain:    relpipe.RandomChain(21, 60, 1, 100, 1, 10),
		Platform: relpipe.HomogeneousPlatform(12, 1, 1e-8, 1, 1e-5, 3),
	}
	bounds := relpipe.Bounds{Period: 400, Latency: 4000}
	base := relpipe.Options{Parallelism: 1, Restarts: 4, Budget: 800, Seed: 5}
	want, err := relpipe.OptimizeWith(inst, bounds, relpipe.Heuristic, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{2, 8} {
		o := base
		o.Parallelism = p
		got, err := relpipe.OptimizeWith(inst, bounds, relpipe.Heuristic, o)
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("P=%d: heuristic solution differs from sequential", p)
		}
	}
}

func TestFrontierWithParallelismInvariance(t *testing.T) {
	inst := relpipe.Instance{
		Chain:    relpipe.RandomChain(5, 11, 1, 100, 1, 10),
		Platform: relpipe.HomogeneousPlatform(8, 1, 1e-8, 1, 1e-5, 3),
	}
	want, err := relpipe.FrontierWith(inst, relpipe.Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{2, 8} {
		got, err := relpipe.FrontierWith(inst, relpipe.Options{Parallelism: p})
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("P=%d: frontier differs from sequential", p)
		}
	}
}

func TestSimulateBatchParallelismInvariance(t *testing.T) {
	inst := relpipe.Instance{
		Chain:    relpipe.RandomChain(9, 8, 1, 100, 1, 10),
		Platform: relpipe.HomogeneousPlatform(6, 1, 1e-4, 1, 1e-3, 3),
	}
	sol, err := relpipe.Optimize(inst, relpipe.Bounds{}, relpipe.DP)
	if err != nil {
		t.Fatal(err)
	}
	cfg := relpipe.SimConfig{
		Chain: inst.Chain, Platform: inst.Platform, Mapping: sol.Mapping,
		Period: sol.Eval.WorstPeriod, DataSets: 150, Seed: 3,
		InjectFailures: true, Routing: relpipe.SimTwoHop,
	}
	want, err := relpipe.SimulateBatch(cfg, 5, relpipe.Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{2, 8} {
		got, err := relpipe.SimulateBatch(cfg, 5, relpipe.Options{Parallelism: p})
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("P=%d: batch differs from sequential", p)
		}
	}
}
