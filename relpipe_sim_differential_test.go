package relpipe_test

// Facade-level pinning of the flat-array Monte-Carlo engine: the public
// Simulate/SimulateBatch entry points must return results bit-identical
// to the scalar reference oracle (internal/sim/simref), at every
// parallelism degree. The per-field checks live in internal/sim's
// differential suite; this layer guards the facade wiring (option
// threading, batch dispatch).

import (
	"math"
	"testing"

	"relpipe"
	"relpipe/internal/sim/simref"
)

func simDiffConfig() relpipe.SimConfig {
	inst := relpipe.Instance{
		Chain:    relpipe.RandomChain(21, 9, 1, 100, 1, 10),
		Platform: relpipe.HomogeneousPlatform(6, 1, 1e-3, 1, 1e-3, 3),
	}
	sol, err := relpipe.Optimize(inst, relpipe.Bounds{Period: 300}, relpipe.Auto)
	if err != nil {
		panic(err)
	}
	return relpipe.SimConfig{
		Chain: inst.Chain, Platform: inst.Platform, Mapping: sol.Mapping,
		Period: 300, DataSets: 500, Seed: 13, InjectFailures: true,
		Routing: relpipe.SimTwoHop, WarmUp: 20,
	}
}

func sameFloat(a, b float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

func TestSimulateMatchesScalarOracle(t *testing.T) {
	cfg := simDiffConfig()
	got, err := relpipe.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := simref.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.DataSets != want.DataSets || got.Successes != want.Successes ||
		!sameFloat(got.SteadyPeriod, want.SteadyPeriod) ||
		!sameFloat(got.MeanLatency(), want.MeanLatency()) {
		t.Fatalf("facade Simulate diverges from scalar reference: %+v vs %+v", got, want)
	}
}

func TestSimulateBatchMatchesScalarOracleAcrossParallelism(t *testing.T) {
	cfg := simDiffConfig()
	want, err := simref.RunBatch(cfg, 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 8} {
		got, err := relpipe.SimulateBatch(cfg, 6, relpipe.Options{Parallelism: p})
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Runs) != len(want.Runs) {
			t.Fatalf("P=%d: %d runs, want %d", p, len(got.Runs), len(want.Runs))
		}
		for r := range got.Runs {
			if got.Seeds[r] != want.Seeds[r] {
				t.Fatalf("P=%d: seed %d diverges", p, r)
			}
			g, w := got.Runs[r], want.Runs[r]
			if g.DataSets != w.DataSets || g.Successes != w.Successes ||
				!sameFloat(g.SteadyPeriod, w.SteadyPeriod) {
				t.Fatalf("P=%d replication %d diverges: %+v vs %+v", p, r, g, w)
			}
			for i := range g.Latencies {
				if !sameFloat(g.Latencies[i], w.Latencies[i]) {
					t.Fatalf("P=%d replication %d latency %d diverges", p, r, i)
				}
			}
		}
		if !sameFloat(got.SuccessRate(), want.SuccessRate()) ||
			!sameFloat(got.MeanLatency(), want.MeanLatency()) ||
			!sameFloat(got.MeanSteadyPeriod(), want.MeanSteadyPeriod()) {
			t.Fatalf("P=%d: batch aggregates diverge", p)
		}
	}
}
