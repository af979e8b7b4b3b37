package adapt

import (
	"context"
	"testing"

	"relpipe/internal/chain"
	"relpipe/internal/platform"
	"relpipe/internal/rng"
	"relpipe/internal/search"
)

// TestAdaptQuality is the CI policy-ordering gate (run by the
// heuristic-quality job next to TestSearchQuality): on a pinned
// deterministic instance set — the tight-bound n=100 heterogeneous
// instance of the search gate — the repair policies must order
//
//	remap ≥ spares ≥ greedy ≥ none
//
// on mean mission reliability, with remap strictly beating none. The
// run is fully deterministic (fixed seeds, fixed budgets), so any
// regression in the policies or the warm-started remap search fails
// here instead of slipping silently.
func TestAdaptQuality(t *testing.T) {
	if testing.Short() {
		t.Skip("quality gate is not short")
	}
	r := rng.New(42)
	c := chain.PaperRandom(r, 100)
	pl := platform.PaperHeterogeneous(r, 30)
	const per, lat = 25.0, 600.0
	res, ok, err := search.Optimize(c, pl, search.Options{Period: per, Latency: lat, Seed: 1})
	if err != nil || !ok {
		t.Fatalf("static optimize: ok=%v err=%v", ok, err)
	}

	base := Options{
		Horizon:   1000,
		Period:    per,
		Latency:   lat,
		LifeScale: 4e4, // λ=1e-8 → ~10 crashes (≈3 hosted) per mission
		Spares:    4,
		Seed:      1,
		Restarts:  2,
		Budget:    600,
	}
	const reps = 8

	rel := map[Policy]float64{}
	avail := map[Policy]float64{}
	for _, policy := range Policies() {
		opts := base
		opts.Policy = policy
		batch, err := RunBatch(context.Background(), c, pl, res.M, opts, reps, 0, nil)
		if err != nil {
			t.Fatalf("%v: %v", policy, err)
		}
		s := batch.Summarize()
		rel[policy], avail[policy] = s.MissionReliability, s.Availability
		if s.MeanCrashes == 0 {
			t.Fatalf("%v: pinned instance produced no crashes", policy)
		}
		t.Logf("%-6v missionRel=%.6f availability=%.6f repairs=%.2f ttfv=%.1f",
			policy, s.MissionReliability, s.Availability, s.MeanRepairs, s.MeanTimeToFirstViolation)
	}

	order := Policies() // remap, spares, greedy, none
	for i := 1; i < len(order); i++ {
		hi, lo := order[i-1], order[i]
		if rel[hi] < rel[lo] {
			t.Errorf("mission reliability ordering broken: %v (%.15f) < %v (%.15f)",
				hi, rel[hi], lo, rel[lo])
		}
	}
	if rel[PolicyRemap] <= rel[PolicyNone] {
		t.Errorf("remap (%.15f) must strictly beat none (%.15f) on mission reliability",
			rel[PolicyRemap], rel[PolicyNone])
	}
	if avail[PolicyRemap] < avail[PolicyNone] {
		t.Errorf("remap availability %.6f below none %.6f", avail[PolicyRemap], avail[PolicyNone])
	}
}
